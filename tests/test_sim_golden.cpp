/**
 * @file
 * Golden outputs of the detailed and functional issue paths, and the
 * lane-order contract of the warp-granular mechanism hooks.
 *
 * The golden tables were recorded from the per-lane engine that
 * predates the warp-granular hooks; the functional table was recorded
 * before the sampled tier, which shared the functional stepper, was
 * deleted. They pin:
 *  - the FNV-1a digest of every Fig. 12 cell's serializeCellPayload
 *    (28 workloads x 4 mechanisms, scale 0.25, detailed and functional
 *    tiers), which covers cycles, the cache profile and every device
 *    counter;
 *  - each attack family, plus a store warp that faults in one lane,
 *    under every registry mechanism: the fault kind and address and
 *    the ocu.* / ec.* / gpushield.* counters.
 * A mismatch prints the actual table in the golden tables' format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "ir/builder.hpp"
#include "mechanisms/registry.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/device.hpp"
#include "workloads/attacks.hpp"

namespace lmi {
namespace {

using namespace ir;

/** Elements in the lane-fault store buffer (one i32 per element). */
constexpr unsigned kLaneBufElems = 64;

/**
 * One 32-lane warp storing out[t] = t + 1, except that lane k's index
 * is bent to kLaneBufElems, the first element past the buffer. Lane k
 * alone carries the bad address; lanes on both sides of it are good.
 */
IrModule
laneFaultKernel()
{
    IrFunction f = IrBuilder::makeKernel(
        "lane_fault", {{"out", Type::ptr(4)}, {"k", Type::i64()}});
    IrBuilder b(f);
    b.setInsertPoint(b.block("entry"));
    auto out = b.param(0);
    auto k = b.param(1);
    auto t = b.gtid();
    // is_k = 1 iff t == k: (t ^ k) - 1 wraps to all-ones only at zero.
    auto is_k = b.ishr(b.isub(b.ixor(t, k), b.constInt(1)),
                       b.constInt(63));
    auto bend = b.imul(is_k, b.isub(b.constInt(kLaneBufElems), k));
    b.store(b.gep(out, b.iadd(t, bend)), b.iadd(t, b.constInt(1)));
    b.ret();
    IrModule m;
    m.functions.push_back(std::move(f));
    return m;
}

struct LaneFaultRun
{
    RunResult result;
    uint64_t buf = 0;
    std::vector<uint32_t> values; ///< out[0 .. 32)
};

LaneFaultRun
runLaneFault(Device& dev, unsigned k, ExecutionTier tier)
{
    LaneFaultRun run;
    run.buf = dev.cudaMalloc(kLaneBufElems * 4);
    const CompiledKernel ck = dev.compile(laneFaultKernel(), "lane_fault");
    LaunchOptions opts;
    opts.tier = tier;
    run.result = dev.launch(ck, 1, 32, {run.buf, k}, opts);
    for (unsigned i = 0; i < 32; ++i)
        run.values.push_back(dev.peek32(run.buf + 4 * i));
    return run;
}

/** "Kind@0xaddr" (or "clean"), then every ocu/ec/gpushield counter. */
std::string
outcomeLine(Device& dev, const RunResult& r)
{
    std::string line;
    if (r.faults.empty()) {
        line = "clean";
    } else {
        char addr[32];
        std::snprintf(addr, sizeof(addr), "@0x%llx",
                      static_cast<unsigned long long>(
                          r.faults.front().address));
        line = std::string(faultKindName(r.faults.front().kind)) + addr;
    }
    for (const auto& [name, value] : dev.stats().counters()) {
        if (name.rfind("ocu.", 0) == 0 || name.rfind("ec.", 0) == 0 ||
            name.rfind("gpushield.", 0) == 0)
            line += " " + name + "=" + std::to_string(value);
    }
    return line;
}

void
expectGolden(const std::vector<std::string>& actual,
             const std::vector<std::string>& golden)
{
    EXPECT_EQ(actual, golden);
    if (actual == golden)
        return;
    std::string dump = "actual table:\n";
    for (const std::string& s : actual)
        dump += "    \"" + s + "\",\n";
    ADD_FAILURE() << dump;
}

// clang-format off
const std::vector<std::string> kFig12Golden = {
    "backprop/baseline 321127f429fc4be6",
    "backprop/baggy-sw 1316600a182212d7",
    "backprop/gpushield 5f1b4bf12d3dcc87",
    "backprop/lmi 02ea251d7e28f9a4",
    "bfs/baseline 8596ba6fcabbb707",
    "bfs/baggy-sw 59aa87eab47a3564",
    "bfs/gpushield 718aee13ee981dd2",
    "bfs/lmi 3886f4ded2d47dc0",
    "dwt2d/baseline 55af76c2b8c79edb",
    "dwt2d/baggy-sw 681e91c9de838991",
    "dwt2d/gpushield addade1dcab83702",
    "dwt2d/lmi 83c0b9b8af8c8b36",
    "gaussian/baseline be8f5a798826c8b0",
    "gaussian/baggy-sw bb2e38376102bf47",
    "gaussian/gpushield 28d7a319242b54a9",
    "gaussian/lmi a1ad3978342dc7cc",
    "hotspot/baseline ddbde25297032481",
    "hotspot/baggy-sw e1f1b6c53191a295",
    "hotspot/gpushield 3b5a9637c737bf86",
    "hotspot/lmi 24d305e6aa23cd1f",
    "lavaMD/baseline 8024748e770b113f",
    "lavaMD/baggy-sw cfd321889d9fa599",
    "lavaMD/gpushield 918717b8d32baec2",
    "lavaMD/lmi 5029b49d1e6dc37e",
    "lud_cuda/baseline fe686a0358f8fd2a",
    "lud_cuda/baggy-sw f21cee57ac645237",
    "lud_cuda/gpushield ffd2983a9fa0571b",
    "lud_cuda/lmi 86073f2221ec4a1f",
    "needle/baseline 980911f7dabcf9b5",
    "needle/baggy-sw 10d5244224c777a6",
    "needle/gpushield 3e90e3c13a3c1a4c",
    "needle/lmi f979f2a5829a8da1",
    "nn/baseline 5aa986a1ed9bddfa",
    "nn/baggy-sw 366b931b9e2e530c",
    "nn/gpushield 6075e4404a1c259f",
    "nn/lmi b388af2a4c6feda4",
    "particlefilter_float/baseline f24d7d63849fd8fb",
    "particlefilter_float/baggy-sw 45ba2db9f77186a7",
    "particlefilter_float/gpushield 004ea613deb471cd",
    "particlefilter_float/lmi 8d4d35d10ccc9ba6",
    "particlefilter_naive/baseline b82f2a9fa78402ca",
    "particlefilter_naive/baggy-sw c1be165b974df81b",
    "particlefilter_naive/gpushield db44ddc538df265c",
    "particlefilter_naive/lmi 332dbc15a3d262e6",
    "pathfinder/baseline 6752e51d2c2f8c5c",
    "pathfinder/baggy-sw a4aeeb3b43ed544a",
    "pathfinder/gpushield 0e98affcdeb31a40",
    "pathfinder/lmi f71a02f020bef844",
    "sc_gpu/baseline 88cb9adde1f03b28",
    "sc_gpu/baggy-sw 200f76d8f44f6c3f",
    "sc_gpu/gpushield a6cbe2afdc078429",
    "sc_gpu/lmi 5bcce8abd969553d",
    "srad_v1/baseline ee5afbbd6f256cea",
    "srad_v1/baggy-sw c2387cfc9ba81a27",
    "srad_v1/gpushield 1bb6dd88807283dd",
    "srad_v1/lmi 7545e6b8bb8d7569",
    "srad_v2/baseline 8c2b587c6c98e64d",
    "srad_v2/baggy-sw 3e4a51f8f45eb318",
    "srad_v2/gpushield abf79338256a40b1",
    "srad_v2/lmi 4852044cbd40e247",
    "AlexNet/baseline fe8eabf909d8f3b4",
    "AlexNet/baggy-sw 643b7cbd489d52b5",
    "AlexNet/gpushield feaf9cbd810e3a78",
    "AlexNet/lmi 06d61ebcf3f89482",
    "CifarNet/baseline 3f9fd6f3bdfbe0ef",
    "CifarNet/baggy-sw 8ac42ac3827e5156",
    "CifarNet/gpushield ca35653aa1e69a44",
    "CifarNet/lmi b847ac1cab6ecb4d",
    "GRU/baseline d06c400c6d7798ca",
    "GRU/baggy-sw 38309cc01f83d345",
    "GRU/gpushield 0d6b00bece2c44c1",
    "GRU/lmi a314773007edb4f2",
    "LSTM/baseline 283874dca38ceeea",
    "LSTM/baggy-sw afe97c32732f7574",
    "LSTM/gpushield 95b1b28e7b9824e3",
    "LSTM/lmi b2e823df176c4107",
    "bert/baseline 52cd13fca2f3924d",
    "bert/baggy-sw f57b56b23a7d2c68",
    "bert/gpushield 8cc9069264b229fb",
    "bert/lmi e00dc959d2ca6de0",
    "decoding/baseline 77e5d422e9a3d651",
    "decoding/baggy-sw adf929cdc3275d31",
    "decoding/gpushield 1539730d414bf3b8",
    "decoding/lmi f17c283a4f40df39",
    "swin/baseline 0b4afaf501c8e872",
    "swin/baggy-sw 890b15144ed612d9",
    "swin/gpushield 06f737f748d41d16",
    "swin/lmi 3f09e30a8bef956c",
    "wenet_decoder/baseline 012422a3696e384d",
    "wenet_decoder/baggy-sw 985f1b5b8d1ca641",
    "wenet_decoder/gpushield e7aef2eacd510093",
    "wenet_decoder/lmi 0d1c6a8149bae9d6",
    "wenet_encoder/baseline 48aa95411c2813b1",
    "wenet_encoder/baggy-sw 3280498ba34e641e",
    "wenet_encoder/gpushield d0887725f314a0fc",
    "wenet_encoder/lmi c18690da0f991663",
    "BEVerse/baseline 9d9734d1b88a964f",
    "BEVerse/baggy-sw 85b00880e85c7b22",
    "BEVerse/gpushield d3d922996865809b",
    "BEVerse/lmi 77a6bd7a6af6ce54",
    "DETR/baseline d0c3aa214e1d9314",
    "DETR/baggy-sw f740b07dcba8178d",
    "DETR/gpushield 2eb1052fbc739e81",
    "DETR/lmi d9a73b3d1b64a05d",
    "MOTR/baseline e8de07f273d95849",
    "MOTR/baggy-sw 0b203c182a887fb5",
    "MOTR/gpushield 4c1127950337513f",
    "MOTR/lmi 0803d67fe3b0f196",
    "segformer/baseline 862209ea75e7dc61",
    "segformer/baggy-sw 6e43ca53cbdbbc2f",
    "segformer/gpushield 4e3652fbd03ce4bd",
    "segformer/lmi 3bf827d345d924ad",
};

const std::vector<std::string> kFig12FunctionalGolden = {
    "backprop/baseline ad81d434158ad1d4",
    "backprop/baggy-sw 6d4272ebaa6a70ff",
    "backprop/gpushield 8d5053927e23de13",
    "backprop/lmi a04a6802ac031c43",
    "bfs/baseline 8bf36f9419691187",
    "bfs/baggy-sw c9ec0619fc2a7b23",
    "bfs/gpushield 18f014a4bcc3994e",
    "bfs/lmi ba8ae7af3cb004d4",
    "dwt2d/baseline 06c1945c02e53e29",
    "dwt2d/baggy-sw f578fc3b1366bfe6",
    "dwt2d/gpushield a573b57555c7c429",
    "dwt2d/lmi 81af7d5b033ff067",
    "gaussian/baseline d46aff0506e50a91",
    "gaussian/baggy-sw 64d374b749b3d90b",
    "gaussian/gpushield 5250a4931e0a448d",
    "gaussian/lmi 1dab0499bd8d3379",
    "hotspot/baseline 033975c082319404",
    "hotspot/baggy-sw 88f3823bffc305a7",
    "hotspot/gpushield 370e25a32b8cc442",
    "hotspot/lmi 805aa3c6433b4ace",
    "lavaMD/baseline 84a71e4e6b91f2cd",
    "lavaMD/baggy-sw 8d0b6efe06edf849",
    "lavaMD/gpushield 2a603430ea996dc5",
    "lavaMD/lmi 7bc2776fab12eff8",
    "lud_cuda/baseline 248292ff2a23d7e4",
    "lud_cuda/baggy-sw fa68c8fc698f59be",
    "lud_cuda/gpushield 2f27bf9c2bbdfb95",
    "lud_cuda/lmi 9ee708d2bf0892e6",
    "needle/baseline f187e96da448b3c3",
    "needle/baggy-sw 0403d73a39048597",
    "needle/gpushield 6308f9c574bd934f",
    "needle/lmi 698d0056f318befe",
    "nn/baseline c0b8b0a8ad5093f9",
    "nn/baggy-sw cfbba19ad51f1cd6",
    "nn/gpushield fc53d8bb935f571c",
    "nn/lmi 8abc2821f2cf2857",
    "particlefilter_float/baseline 6995348775e575b0",
    "particlefilter_float/baggy-sw 0fc65059aaf7be64",
    "particlefilter_float/gpushield 1e3477e94343dd67",
    "particlefilter_float/lmi 56f674a352bbea12",
    "particlefilter_naive/baseline 856eead53e51f958",
    "particlefilter_naive/baggy-sw a4714e373c3d3778",
    "particlefilter_naive/gpushield 5708b479569ffe85",
    "particlefilter_naive/lmi 24275ea18aecbd2f",
    "pathfinder/baseline 7687f3acd3bdf883",
    "pathfinder/baggy-sw 4596003a239d60df",
    "pathfinder/gpushield 18b002d0d1e49e28",
    "pathfinder/lmi 88bf712cd003686e",
    "sc_gpu/baseline 8337ddd79ddabbe7",
    "sc_gpu/baggy-sw 4da5f24dae02cfb9",
    "sc_gpu/gpushield 3e187e69f0074a48",
    "sc_gpu/lmi 653b4581ac7eae6c",
    "srad_v1/baseline 6f69b2f77e9626b2",
    "srad_v1/baggy-sw 3173e2137559e884",
    "srad_v1/gpushield c2ee38bc572ca9b4",
    "srad_v1/lmi 54f0a874ea41c842",
    "srad_v2/baseline db2923cf3e3414f7",
    "srad_v2/baggy-sw 88e7a359c4c0b6cf",
    "srad_v2/gpushield 54b2dbbbad4f73db",
    "srad_v2/lmi b48bed9fe3fab502",
    "AlexNet/baseline 3e152d70146f3e12",
    "AlexNet/baggy-sw 8f7ad45c80ea050b",
    "AlexNet/gpushield 4bc87fe3d7b6150f",
    "AlexNet/lmi 4b8b725e08098713",
    "CifarNet/baseline 0883caa78a10dbba",
    "CifarNet/baggy-sw 68480caf8f181423",
    "CifarNet/gpushield 7fad2f16980cc8bd",
    "CifarNet/lmi 42cf275c138c8c0f",
    "GRU/baseline 918d723982359440",
    "GRU/baggy-sw 85e9c514cdf4c440",
    "GRU/gpushield c3011aca965a48ec",
    "GRU/lmi 59d5f08daced7494",
    "LSTM/baseline 639b21a306796954",
    "LSTM/baggy-sw 8051ece58e122562",
    "LSTM/gpushield 51a3412d2405023c",
    "LSTM/lmi 8cc4585040495a62",
    "bert/baseline fcf474a239a1fb7f",
    "bert/baggy-sw 1cef54d81c8abbc6",
    "bert/gpushield 2fefc291daa7699a",
    "bert/lmi a193a3d8e9dbafdf",
    "decoding/baseline 7f1b001a25567749",
    "decoding/baggy-sw 679a93a3e68b87ff",
    "decoding/gpushield e5a6c12a6ef7adb5",
    "decoding/lmi 220f5710ce331811",
    "swin/baseline cc476c85e4333783",
    "swin/baggy-sw 7cd0b3bb406b53c4",
    "swin/gpushield f33a3fb4661d46b7",
    "swin/lmi 9f24844be3fe469e",
    "wenet_decoder/baseline 0d0b15cdb69b0ae2",
    "wenet_decoder/baggy-sw 972f26947b0f5f14",
    "wenet_decoder/gpushield 6b37a9ca303fbe28",
    "wenet_decoder/lmi 673d4ade34490533",
    "wenet_encoder/baseline 7f82ba8b3995dbc4",
    "wenet_encoder/baggy-sw 7bfbc8cda6dd8bf4",
    "wenet_encoder/gpushield 94595ad398c594c0",
    "wenet_encoder/lmi 84072784a33bdd34",
    "BEVerse/baseline 8f92502f37821fc0",
    "BEVerse/baggy-sw a882cfdd59f54c00",
    "BEVerse/gpushield 53dd06e6fa7c89f5",
    "BEVerse/lmi 95e0ed358e0751fb",
    "DETR/baseline 36be3c16323554d0",
    "DETR/baggy-sw 7ad7b8470cec7f23",
    "DETR/gpushield 6db2e3451653cf9d",
    "DETR/lmi 994c9660a2e690df",
    "MOTR/baseline 503b46d2588dcd21",
    "MOTR/baggy-sw 4226d7d5ad03fc42",
    "MOTR/gpushield 6f5b3adfa4710a59",
    "MOTR/lmi 96c90f51379cd8ab",
    "segformer/baseline 69fc5f27e11d6ee8",
    "segformer/baggy-sw 4e66f3b1dc8aff92",
    "segformer/gpushield 35ff539cdc0d8b8e",
    "segformer/lmi ca0ec5225f32ad1b",
};

const std::vector<std::string> kAttackGolden = {
    "baseline/intra_padding clean",
    "baseline/subobject_field clean",
    "baseline/uaf_invalidate clean",
    "baseline/uaf_realloc clean",
    "baseline/off_by_one clean",
    "baseline/neg_stride clean",
    "baseline/lane_fault_k0 clean",
    "baseline/lane_fault_k13 clean",
    "baseline/lane_fault_k31 clean",
    "lmi/intra_padding clean ec.checks=1 ocu.checks=1",
    "lmi/subobject_field clean ec.checks=2 ocu.checks=3",
    "lmi/uaf_invalidate use-after-free@0x280000004 ec.checks=2 ec.faults=1 ocu.checks=2 ocu.invalid_input=1",
    "lmi/uaf_realloc spatial-overflow@0x280000004 ec.checks=3 ec.faults=1 ocu.checks=3 ocu.invalid_input=1",
    "lmi/off_by_one spatial-overflow@0x140000 ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi/neg_stride spatial-overflow@0x27ffffffc ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi/lane_fault_k0 spatial-overflow@0x100000100 ec.checks=1 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi/lane_fault_k13 spatial-overflow@0x100000100 ec.checks=14 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi/lane_fault_k31 spatial-overflow@0x100000100 ec.checks=32 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+liveness/intra_padding clean ec.checks=1 ocu.checks=1",
    "lmi+liveness/subobject_field clean ec.checks=2 ocu.checks=3",
    "lmi+liveness/uaf_invalidate use-after-free@0x280000004 ec.checks=2 ec.faults=1 ocu.checks=2 ocu.invalid_input=1",
    "lmi+liveness/uaf_realloc use-after-free@0x280000004 ec.checks=3 ec.faults=1 ocu.checks=3 ocu.invalid_input=1",
    "lmi+liveness/off_by_one spatial-overflow@0x140000 ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi+liveness/neg_stride spatial-overflow@0x27ffffffc ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi+liveness/lane_fault_k0 spatial-overflow@0x100000100 ec.checks=1 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+liveness/lane_fault_k13 spatial-overflow@0x100000100 ec.checks=14 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+liveness/lane_fault_k31 spatial-overflow@0x100000100 ec.checks=32 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+subobject/intra_padding clean ec.checks=1 ocu.checks=1",
    "lmi+subobject/subobject_field spatial-overflow@0x13ff54 ec.checks=2 ec.faults=1 ocu.checks=3 ocu.violations=1",
    "lmi+subobject/uaf_invalidate use-after-free@0x280000004 ec.checks=2 ec.faults=1 ocu.checks=2 ocu.invalid_input=1",
    "lmi+subobject/uaf_realloc spatial-overflow@0x280000004 ec.checks=3 ec.faults=1 ocu.checks=3 ocu.invalid_input=1",
    "lmi+subobject/off_by_one spatial-overflow@0x140000 ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi+subobject/neg_stride spatial-overflow@0x27ffffffc ec.checks=1 ec.faults=1 ocu.checks=1 ocu.violations=1",
    "lmi+subobject/lane_fault_k0 spatial-overflow@0x100000100 ec.checks=1 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+subobject/lane_fault_k13 spatial-overflow@0x100000100 ec.checks=14 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+subobject/lane_fault_k31 spatial-overflow@0x100000100 ec.checks=32 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+elide/intra_padding clean ec.checks=1 ocu.checks_elided=1",
    "lmi+elide/subobject_field clean ec.checks=2 ocu.checks_elided=3",
    "lmi+elide/uaf_invalidate use-after-free@0x280000004 ec.checks=2 ec.faults=1 ocu.checks_elided=2",
    "lmi+elide/uaf_realloc spatial-overflow@0x280000004 ec.checks=3 ec.faults=1 ocu.checks_elided=3",
    "lmi+elide/off_by_one compile_rejected",
    "lmi+elide/neg_stride compile_rejected",
    "lmi+elide/lane_fault_k0 spatial-overflow@0x100000100 ec.checks=1 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+elide/lane_fault_k13 spatial-overflow@0x100000100 ec.checks=14 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "lmi+elide/lane_fault_k31 spatial-overflow@0x100000100 ec.checks=32 ec.faults=1 ocu.checks=32 ocu.violations=1",
    "gpushield/intra_padding clean",
    "gpushield/subobject_field clean",
    "gpushield/uaf_invalidate clean",
    "gpushield/uaf_realloc clean",
    "gpushield/off_by_one clean",
    "gpushield/neg_stride clean",
    "gpushield/lane_fault_k0 region-overflow@0x100000100 gpushield.buffers=1 gpushield.rcache_misses=1 gpushield.rcache_probes=1",
    "gpushield/lane_fault_k13 region-overflow@0x100000100 gpushield.buffers=1 gpushield.rcache_misses=1 gpushield.rcache_probes=14",
    "gpushield/lane_fault_k31 region-overflow@0x100000100 gpushield.buffers=1 gpushield.rcache_misses=1 gpushield.rcache_probes=32",
    "baggy-sw/intra_padding clean",
    "baggy-sw/subobject_field clean",
    "baggy-sw/uaf_invalidate clean",
    "baggy-sw/uaf_realloc clean",
    "baggy-sw/off_by_one spatial-overflow@0x0",
    "baggy-sw/neg_stride spatial-overflow@0x0",
    "baggy-sw/lane_fault_k0 spatial-overflow@0x0",
    "baggy-sw/lane_fault_k13 spatial-overflow@0x0",
    "baggy-sw/lane_fault_k31 spatial-overflow@0x0",
    "gmod/intra_padding clean",
    "gmod/subobject_field clean",
    "gmod/uaf_invalidate clean",
    "gmod/uaf_realloc clean",
    "gmod/off_by_one clean",
    "gmod/neg_stride clean",
    "gmod/lane_fault_k0 canary-corruption@0x100000040",
    "gmod/lane_fault_k13 canary-corruption@0x100000040",
    "gmod/lane_fault_k31 canary-corruption@0x100000040",
    "cucatch/intra_padding clean",
    "cucatch/subobject_field clean",
    "cucatch/uaf_invalidate clean",
    "cucatch/uaf_realloc clean",
    "cucatch/off_by_one spatial-overflow@0x140000",
    "cucatch/neg_stride clean",
    "cucatch/lane_fault_k0 spatial-overflow@0x100000100",
    "cucatch/lane_fault_k13 spatial-overflow@0x100000100",
    "cucatch/lane_fault_k31 spatial-overflow@0x100000100",
    "memcheck-dbi/intra_padding clean",
    "memcheck-dbi/subobject_field clean",
    "memcheck-dbi/uaf_invalidate clean",
    "memcheck-dbi/uaf_realloc clean",
    "memcheck-dbi/off_by_one tripwire-hit@0x140000",
    "memcheck-dbi/neg_stride clean",
    "memcheck-dbi/lane_fault_k0 tripwire-hit@0x100000140",
    "memcheck-dbi/lane_fault_k13 tripwire-hit@0x100000140",
    "memcheck-dbi/lane_fault_k31 tripwire-hit@0x100000140",
    "lmi-dbi/intra_padding clean",
    "lmi-dbi/subobject_field clean",
    "lmi-dbi/uaf_invalidate invalid-extent@0x280000004",
    "lmi-dbi/uaf_realloc invalid-extent@0x280000004",
    "lmi-dbi/off_by_one spatial-overflow@0x140000",
    "lmi-dbi/neg_stride spatial-overflow@0x27ffffffc",
    "lmi-dbi/lane_fault_k0 spatial-overflow@0x100000100",
    "lmi-dbi/lane_fault_k13 spatial-overflow@0x100000100",
    "lmi-dbi/lane_fault_k31 spatial-overflow@0x100000100",
};
// clang-format on

/** "workload/mechanism digest" for every Fig. 12 cell on @p tier. */
std::vector<std::string>
fig12Digests(ExecutionTier tier)
{
    SweepSpec spec;
    for (const auto& profile : workloadSuite())
        spec.workloads.push_back(profile.name);
    spec.mechanisms.push_back(MechanismKind::Baseline);
    for (MechanismKind kind : hardwareComparisonMechanisms())
        spec.mechanisms.push_back(kind);
    spec.scales = {0.25};
    spec.tier = tier;
    const SweepResult sweep = runSweep(spec);

    std::vector<std::string> actual;
    for (const CellResult& cell : sweep.cells) {
        EXPECT_TRUE(cell.ok) << cell.workload << ": " << cell.error;
        Fnv1a h;
        h.str(serializeCellPayload(cell));
        char digest[24];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(h.value()));
        actual.push_back(cell.workload + "/" +
                         mechanismKindName(cell.mechanism) + " " + digest);
    }
    return actual;
}

TEST(Sim, Fig12CellDigestsMatchGolden)
{
    for (ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        SCOPED_TRACE(std::string("tier=") + executionTierName(tier));
        expectGolden(fig12Digests(tier),
                     tier == ExecutionTier::Detailed ? kFig12Golden
                                                     : kFig12FunctionalGolden);
    }
}

TEST(Sim, AttackOutcomesMatchGolden)
{
    std::vector<std::string> actual;
    for (MechanismKind kind : allMechanisms()) {
        const std::string mech = mechanismKindName(kind);
        for (const AttackScenario& scenario : attackSuite()) {
            Device dev(makeMechanism(kind));
            std::string line = mech + "/" + scenario.name + " ";
            try {
                const CompiledKernel ck =
                    dev.compile(scenario.build(false), scenario.kernel);
                const RunResult r =
                    dev.launch(ck, scenario.grid, scenario.block, {});
                line += outcomeLine(dev, r);
            } catch (const CompileError&) {
                line += "compile_rejected";
            }
            actual.push_back(line);
        }
        for (unsigned k : {0u, 13u, 31u}) {
            Device dev(makeMechanism(kind));
            const LaneFaultRun run =
                runLaneFault(dev, k, ExecutionTier::Detailed);
            actual.push_back(mech + "/lane_fault_k" + std::to_string(k) +
                             " " + outcomeLine(dev, run.result));
        }
    }
    expectGolden(actual, kAttackGolden);
}

TEST(Sim, StoreFaultStopsAtFirstFaultingLane)
{
    for (MechanismKind kind :
         {MechanismKind::Lmi, MechanismKind::GpuShield,
          MechanismKind::MemcheckDbi}) {
        for (ExecutionTier tier :
             {ExecutionTier::Detailed, ExecutionTier::Functional}) {
            for (unsigned k : {0u, 1u, 13u, 31u}) {
                SCOPED_TRACE(std::string(mechanismKindName(kind)) +
                             " tier=" + executionTierName(tier) +
                             " k=" + std::to_string(k));
                Device dev(makeMechanism(kind));
                const uint64_t probes0 =
                    dev.stats().counter("gpushield.rcache_probes");
                const LaneFaultRun run = runLaneFault(dev, k, tier);
                ASSERT_EQ(run.result.faults.size(), 1u);
                // Lane k's address: the first byte past the buffer.
                EXPECT_EQ(run.result.faults[0].address,
                          dev.mechanism().canonical(run.buf) +
                              kLaneBufElems * 4);
                for (unsigned lane = 0; lane < 32; ++lane)
                    EXPECT_EQ(run.values[lane], lane < k ? lane + 1 : 0u)
                        << "lane " << lane;
                if (kind == MechanismKind::GpuShield) {
                    EXPECT_EQ(dev.stats().counter(
                                  "gpushield.rcache_probes") -
                                  probes0,
                              k + 1);
                }
            }
        }
    }
}

} // namespace
} // namespace lmi
