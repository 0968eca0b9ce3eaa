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
 *  - the same digests for the seven mechanisms Fig. 12 leaves out, at
 *    scale 0.1 on both tiers (recorded from the engine whose per-SM
 *    global-memory overlays persisted across slices);
 *  - each attack family, plus a store warp that faults in one lane,
 *    under every registry mechanism: the fault kind and address and
 *    the ocu.* / ec.* / gpushield.* counters.
 * A mismatch prints the actual table in the golden tables' format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
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

const std::vector<std::string> kOtherMechanismsGolden = {
    "backprop/lmi+liveness 2fd856e44f0496e1",
    "backprop/lmi+subobject d03891ba64b84a76",
    "backprop/lmi+elide 1b988aaf325e0006",
    "backprop/gmod 2f249c0d16f081f5",
    "backprop/cucatch 8c155cd0368decbc",
    "backprop/memcheck-dbi b6ff6a5a15c96983",
    "backprop/lmi-dbi a7c6ea4a72124402",
    "bfs/lmi+liveness b259febd233e5884",
    "bfs/lmi+subobject e1da0052a2c48f49",
    "bfs/lmi+elide 7996896e8b305fd7",
    "bfs/gmod 1ce5ad7ab027ab77",
    "bfs/cucatch c62e28596065d54d",
    "bfs/memcheck-dbi fbafc8c49a265740",
    "bfs/lmi-dbi 599a6fd217ab5e9e",
    "dwt2d/lmi+liveness 2fabd04c5850589c",
    "dwt2d/lmi+subobject e8524fabd5cd5d8a",
    "dwt2d/lmi+elide 2ab229eadf5b2ca7",
    "dwt2d/gmod 21c0d713c4f8b41b",
    "dwt2d/cucatch 51bec61eaca0658b",
    "dwt2d/memcheck-dbi b226742896e3a9e1",
    "dwt2d/lmi-dbi fc43a794aee4e213",
    "gaussian/lmi+liveness 591763d55d139974",
    "gaussian/lmi+subobject afebe7cee7c48834",
    "gaussian/lmi+elide ae4c7239d8aed899",
    "gaussian/gmod ceaa16b0e50d13de",
    "gaussian/cucatch e776cf4616b1c3e4",
    "gaussian/memcheck-dbi 6712271792df92ce",
    "gaussian/lmi-dbi 716f1a3ea85d75d1",
    "hotspot/lmi+liveness 2371f00340261f39",
    "hotspot/lmi+subobject 5020fabe0da4d9c1",
    "hotspot/lmi+elide 29c0529893cb6eb5",
    "hotspot/gmod 80819069bf4afdf1",
    "hotspot/cucatch 58fe6a87b1913a0b",
    "hotspot/memcheck-dbi 16b0752959a1008d",
    "hotspot/lmi-dbi 64d8c25c0f7bd584",
    "lavaMD/lmi+liveness c2350584f67d2df4",
    "lavaMD/lmi+subobject a802708c9ca597f7",
    "lavaMD/lmi+elide a8fd031e8e31588c",
    "lavaMD/gmod e9d06d9ed59f7b27",
    "lavaMD/cucatch e2c3d8102884862e",
    "lavaMD/memcheck-dbi 881f82dfa54e3ac9",
    "lavaMD/lmi-dbi 245d9a4956f63d6e",
    "lud_cuda/lmi+liveness e1656a24f2444796",
    "lud_cuda/lmi+subobject 39435201abec7654",
    "lud_cuda/lmi+elide 09640f3af3177b6a",
    "lud_cuda/gmod 828592bdc8c7f2b7",
    "lud_cuda/cucatch 10b4126dc9868578",
    "lud_cuda/memcheck-dbi b026de9a515968e4",
    "lud_cuda/lmi-dbi 8a9b542e6953ddc8",
    "needle/lmi+liveness 24316fd8af6aa29c",
    "needle/lmi+subobject 98df99d64a60c080",
    "needle/lmi+elide 1adb7e247447e146",
    "needle/gmod 9950e965ba4fb767",
    "needle/cucatch 7ab64d8cd6b630c0",
    "needle/memcheck-dbi aa136b515ab6224b",
    "needle/lmi-dbi e757c6e225f1959a",
    "nn/lmi+liveness 58875db3351fd326",
    "nn/lmi+subobject e4960470a4690424",
    "nn/lmi+elide 8d8977c9a0654b32",
    "nn/gmod d1ca59123487fff2",
    "nn/cucatch d0da9c0531794d61",
    "nn/memcheck-dbi 4f83f48b21a2137f",
    "nn/lmi-dbi c31327223b3968ae",
    "particlefilter_float/lmi+liveness 40992c572786503c",
    "particlefilter_float/lmi+subobject bae0f4d89636577c",
    "particlefilter_float/lmi+elide 17d26fc8ab82bcff",
    "particlefilter_float/gmod 83539c2ec0551084",
    "particlefilter_float/cucatch b58c27c4de607286",
    "particlefilter_float/memcheck-dbi 6c51875da198e556",
    "particlefilter_float/lmi-dbi 4d7b38635e901027",
    "particlefilter_naive/lmi+liveness dc149c8c992e6344",
    "particlefilter_naive/lmi+subobject efaee80d5e4fbf24",
    "particlefilter_naive/lmi+elide 1276a931530c8449",
    "particlefilter_naive/gmod 0fafe2d225ca642c",
    "particlefilter_naive/cucatch 1a17812373c964e6",
    "particlefilter_naive/memcheck-dbi 0af8136337222847",
    "particlefilter_naive/lmi-dbi fc76909118bc90a2",
    "pathfinder/lmi+liveness 6447fa3dbd2d680f",
    "pathfinder/lmi+subobject d2adb5357ae22491",
    "pathfinder/lmi+elide ba6c63f5aaaa3ccf",
    "pathfinder/gmod 94fc48682674fdc3",
    "pathfinder/cucatch 912b1b8eddb6a5d1",
    "pathfinder/memcheck-dbi 580e7ec246004bec",
    "pathfinder/lmi-dbi 35d2953145a4c2a0",
    "sc_gpu/lmi+liveness 838b40bef5e06656",
    "sc_gpu/lmi+subobject 83fd047a8cd0a64f",
    "sc_gpu/lmi+elide f323d44defc877e2",
    "sc_gpu/gmod 4c0ddc72ef77118c",
    "sc_gpu/cucatch c2ff4be1fd9df5b6",
    "sc_gpu/memcheck-dbi 64e651237b8eb1c8",
    "sc_gpu/lmi-dbi 222ee154876e9eaf",
    "srad_v1/lmi+liveness 923c694230b49b99",
    "srad_v1/lmi+subobject 2f9dfb3e4cdc9fbb",
    "srad_v1/lmi+elide 95c3e73d810e98e4",
    "srad_v1/gmod 9c91b6799c2a49bd",
    "srad_v1/cucatch 756c8768bd1bfc26",
    "srad_v1/memcheck-dbi 5e90c9b74be2f4da",
    "srad_v1/lmi-dbi b9885268a6424d52",
    "srad_v2/lmi+liveness 76e7b44a6adc397e",
    "srad_v2/lmi+subobject 1d0e9e1497ed576b",
    "srad_v2/lmi+elide 5cce2ea64d0d8b22",
    "srad_v2/gmod 722d377fca51e577",
    "srad_v2/cucatch 2ac34514a8e2e773",
    "srad_v2/memcheck-dbi 6a407a8625838534",
    "srad_v2/lmi-dbi 51363a743c49c1a2",
    "AlexNet/lmi+liveness c747949f61621b39",
    "AlexNet/lmi+subobject a909a8567edf5f51",
    "AlexNet/lmi+elide a976458c9adb7460",
    "AlexNet/gmod 6bc05aee1e962011",
    "AlexNet/cucatch 2ff7c562d0ab55de",
    "AlexNet/memcheck-dbi 09e78bc02e7e7948",
    "AlexNet/lmi-dbi 4bc9bf296f9afcb4",
    "CifarNet/lmi+liveness d8e769e11519e3cb",
    "CifarNet/lmi+subobject 39ffb96e7453160b",
    "CifarNet/lmi+elide 1782f40a1e5306e7",
    "CifarNet/gmod 3f758d21593968d1",
    "CifarNet/cucatch 5c37fdc77733631c",
    "CifarNet/memcheck-dbi a1e508bbc740e736",
    "CifarNet/lmi-dbi 05f273af7cc7ca85",
    "GRU/lmi+liveness a60f18c19b934c22",
    "GRU/lmi+subobject a2b4c123af3471bd",
    "GRU/lmi+elide 4fe671f843183a4e",
    "GRU/gmod 27c822f7c01ad5d8",
    "GRU/cucatch 6caa69d86115151b",
    "GRU/memcheck-dbi cc71efab534117f3",
    "GRU/lmi-dbi 40903d32903e1c85",
    "LSTM/lmi+liveness 3dbfe52a95cf966b",
    "LSTM/lmi+subobject d64c238868af2c29",
    "LSTM/lmi+elide f5688d8ce98f4155",
    "LSTM/gmod 77300c7d7004bef2",
    "LSTM/cucatch 61cede2b53cb3416",
    "LSTM/memcheck-dbi ed5f8fc5b991b4f8",
    "LSTM/lmi-dbi 40d27b2d54cf0abe",
    "bert/lmi+liveness 8ef199105aa59f56",
    "bert/lmi+subobject 04a824129389e01c",
    "bert/lmi+elide b1eba95c27d4f0b6",
    "bert/gmod 6e9b45ce8e9137c9",
    "bert/cucatch 845d0d2848f3371a",
    "bert/memcheck-dbi cdfcefe48f2df5c2",
    "bert/lmi-dbi a3f7a7d31aa5448a",
    "decoding/lmi+liveness c8e21d7ee7872f71",
    "decoding/lmi+subobject 4e7ad0b85d324298",
    "decoding/lmi+elide ea938fca788fda52",
    "decoding/gmod 7f8b3b183b434010",
    "decoding/cucatch 98780cfaa23523d6",
    "decoding/memcheck-dbi 8c57cca50bf6e617",
    "decoding/lmi-dbi 11e53c3ff0517a47",
    "swin/lmi+liveness 63ebb33db4e80ddd",
    "swin/lmi+subobject 3020f2a9fede1a79",
    "swin/lmi+elide a3a35877576b487f",
    "swin/gmod 806b71fe81bb7d85",
    "swin/cucatch 616bbe28226fb102",
    "swin/memcheck-dbi 4fe637574ec72d5e",
    "swin/lmi-dbi db84bceab6715f80",
    "wenet_decoder/lmi+liveness 526f0921797832e3",
    "wenet_decoder/lmi+subobject 7461c2dd0a10becb",
    "wenet_decoder/lmi+elide 10d3dcc02b5bbd58",
    "wenet_decoder/gmod f2b5201f3fb6e0a9",
    "wenet_decoder/cucatch a770482582287184",
    "wenet_decoder/memcheck-dbi acc7c6a5b2771d81",
    "wenet_decoder/lmi-dbi eebab158da7c323c",
    "wenet_encoder/lmi+liveness 7a26ab1c897445a0",
    "wenet_encoder/lmi+subobject 1ce60fddf68f48ca",
    "wenet_encoder/lmi+elide 93961a4ff0356547",
    "wenet_encoder/gmod 6edf114fd63e3ed9",
    "wenet_encoder/cucatch 2b58cbb31a7b2993",
    "wenet_encoder/memcheck-dbi c4d9ecc979444137",
    "wenet_encoder/lmi-dbi 556ff7689d1cb6ba",
    "BEVerse/lmi+liveness 2ac1b80bb0cc65b6",
    "BEVerse/lmi+subobject 6298da02bc5e7895",
    "BEVerse/lmi+elide 2f16495c2e67db53",
    "BEVerse/gmod 947631b30ef1e834",
    "BEVerse/cucatch 5ebe217351f1da62",
    "BEVerse/memcheck-dbi a31f436d67162e15",
    "BEVerse/lmi-dbi 68bc9972995298bc",
    "DETR/lmi+liveness c5d1595751898c3d",
    "DETR/lmi+subobject b54c1e9058c1b910",
    "DETR/lmi+elide d63243307a42691a",
    "DETR/gmod dcb67c8cabe36ed7",
    "DETR/cucatch 08e92593561b6c7e",
    "DETR/memcheck-dbi 7bae8ce1c4f5459e",
    "DETR/lmi-dbi 842fb2b043e75e3a",
    "MOTR/lmi+liveness d16832a2baf2280d",
    "MOTR/lmi+subobject 7858f928b379a2e7",
    "MOTR/lmi+elide 975ed0b0c8ef4efd",
    "MOTR/gmod b1cf353cbec760da",
    "MOTR/cucatch 11c6952444f1cb83",
    "MOTR/memcheck-dbi 69ef1e085a02bd49",
    "MOTR/lmi-dbi 83959cbaf88c571e",
    "segformer/lmi+liveness 7e5afcd3984c6b7f",
    "segformer/lmi+subobject 07aa4732642abbd3",
    "segformer/lmi+elide 5c01ee61fc463d90",
    "segformer/gmod 060b7b1ed9a8b901",
    "segformer/cucatch 5d3d7b6137932a1f",
    "segformer/memcheck-dbi 448cffc878ff73f2",
    "segformer/lmi-dbi b88df61a356f2f0b",
};

const std::vector<std::string> kOtherMechanismsFunctionalGolden = {
    "backprop/lmi+liveness 5b7a921f8c28a404",
    "backprop/lmi+subobject 2b4a4ff61cbed701",
    "backprop/lmi+elide 1938b5cf98c26d4c",
    "backprop/gmod 38c2133541375770",
    "backprop/cucatch c259bc8311752b98",
    "backprop/memcheck-dbi fb88fe3e0c316f47",
    "backprop/lmi-dbi 0e292291f9924c93",
    "bfs/lmi+liveness 0c0a9a77d1e2ca86",
    "bfs/lmi+subobject 396404ea5d53ac52",
    "bfs/lmi+elide 724d11d94257e574",
    "bfs/gmod c15873765d5b15c3",
    "bfs/cucatch 487842cab5506cc5",
    "bfs/memcheck-dbi 954fbe947aa27686",
    "bfs/lmi-dbi e871ab94e5516c03",
    "dwt2d/lmi+liveness 6dd47b3a4087af98",
    "dwt2d/lmi+subobject 013b0156721fd4f0",
    "dwt2d/lmi+elide 80cd7017f5b1a332",
    "dwt2d/gmod b16d92dd193bf221",
    "dwt2d/cucatch 64033c334be8595e",
    "dwt2d/memcheck-dbi 5cb4daff240d38e0",
    "dwt2d/lmi-dbi fa2d7a7ff228a48d",
    "gaussian/lmi+liveness cbe04ef408a1e905",
    "gaussian/lmi+subobject b4ab1ab3f660c41c",
    "gaussian/lmi+elide 6dfa5041461785ef",
    "gaussian/gmod 5839f50bc8b7a71c",
    "gaussian/cucatch 93a7a3705d8ba0a3",
    "gaussian/memcheck-dbi bdd3d2324f5f6964",
    "gaussian/lmi-dbi df9c8799b6c0af1c",
    "hotspot/lmi+liveness 2c438273b7249342",
    "hotspot/lmi+subobject 8f57fc9f2460d7af",
    "hotspot/lmi+elide 9635cf2d4ff85248",
    "hotspot/gmod 5cd2277cf041875c",
    "hotspot/cucatch 1a1cd865fb8dce32",
    "hotspot/memcheck-dbi f5318abb4d78509c",
    "hotspot/lmi-dbi df96a1aa515c1f5d",
    "lavaMD/lmi+liveness a367eb2c45df406b",
    "lavaMD/lmi+subobject 4cca3158a27ae779",
    "lavaMD/lmi+elide 9f6e84d6878c402c",
    "lavaMD/gmod c4ca17844631f4c6",
    "lavaMD/cucatch 3ca8d546f5d23a51",
    "lavaMD/memcheck-dbi db1790fb877313ce",
    "lavaMD/lmi-dbi f0a47ccee4caf0c4",
    "lud_cuda/lmi+liveness 2737663e298eb236",
    "lud_cuda/lmi+subobject 9257311176b3cf85",
    "lud_cuda/lmi+elide f9cc3b7af6d3efe2",
    "lud_cuda/gmod f6f48cc0adf371ad",
    "lud_cuda/cucatch bb808eb2c2b9422a",
    "lud_cuda/memcheck-dbi c063d9d2969c3822",
    "lud_cuda/lmi-dbi c88f73c706047d34",
    "needle/lmi+liveness 3fa222ae16677bdd",
    "needle/lmi+subobject a3d335a29dc7e68d",
    "needle/lmi+elide a87547a91cb05fcb",
    "needle/gmod 00705cae22d580bf",
    "needle/cucatch abfd857f007d6723",
    "needle/memcheck-dbi 55efd821be5a5b1b",
    "needle/lmi-dbi 21fae783de5a82f5",
    "nn/lmi+liveness 0f6415b79cb6e492",
    "nn/lmi+subobject 6df4227654cf1406",
    "nn/lmi+elide 00f09b9390e5d69e",
    "nn/gmod ee1e6b2178136a2b",
    "nn/cucatch 57d0a69a1cc78767",
    "nn/memcheck-dbi 892b20a9cb9405b4",
    "nn/lmi-dbi 07e020b91d02feb3",
    "particlefilter_float/lmi+liveness 944f322900dbcf92",
    "particlefilter_float/lmi+subobject f530b1d8c9ee01a2",
    "particlefilter_float/lmi+elide 710b278e697682ed",
    "particlefilter_float/gmod ee4aaafad1f4aa94",
    "particlefilter_float/cucatch 27c678ca51309c16",
    "particlefilter_float/memcheck-dbi 76faa56c65a4451d",
    "particlefilter_float/lmi-dbi 8bdecf174e4fc036",
    "particlefilter_naive/lmi+liveness 6039f1530d64ae17",
    "particlefilter_naive/lmi+subobject 6a85b2cd73c93a4b",
    "particlefilter_naive/lmi+elide 247d568edadd1244",
    "particlefilter_naive/gmod 3935192b54193aad",
    "particlefilter_naive/cucatch 786bacc4ed67c537",
    "particlefilter_naive/memcheck-dbi 59776783edc1aaf6",
    "particlefilter_naive/lmi-dbi 8112f1ca6d45bd4e",
    "pathfinder/lmi+liveness e97f0dfa0d5e5112",
    "pathfinder/lmi+subobject ac36a0fe3e00d2dc",
    "pathfinder/lmi+elide 5a9bdf70bf26c2d3",
    "pathfinder/gmod 27efd2a145d0c23a",
    "pathfinder/cucatch 1bd9eb8ace090252",
    "pathfinder/memcheck-dbi fb000bda5593c3b4",
    "pathfinder/lmi-dbi 68e08e6c2c3ae95d",
    "sc_gpu/lmi+liveness b33ef80e02e6e224",
    "sc_gpu/lmi+subobject 2dc05fa2b5c0fc42",
    "sc_gpu/lmi+elide 16583b4780be8f7b",
    "sc_gpu/gmod c687b1981bc215bc",
    "sc_gpu/cucatch 63e6595bb58aea9c",
    "sc_gpu/memcheck-dbi dbd9a21a906b0a0e",
    "sc_gpu/lmi-dbi e502b6915ab38b2d",
    "srad_v1/lmi+liveness ad1ebb469390cd20",
    "srad_v1/lmi+subobject ae0ea25c29a70897",
    "srad_v1/lmi+elide 5929840024dc3f15",
    "srad_v1/gmod 06c46c6d97f1add5",
    "srad_v1/cucatch f19a8a487fa91fc8",
    "srad_v1/memcheck-dbi 06b5db3e2d17dc3d",
    "srad_v1/lmi-dbi 551caf7fea486fe5",
    "srad_v2/lmi+liveness a02676516ca5cd59",
    "srad_v2/lmi+subobject cb243cfd901d2428",
    "srad_v2/lmi+elide 2e8ed4d3f0e12923",
    "srad_v2/gmod fac93fbd81059724",
    "srad_v2/cucatch 6ef935c8348e3e52",
    "srad_v2/memcheck-dbi f21ff2abfc26163b",
    "srad_v2/lmi-dbi 6bb4843da80b2ff7",
    "AlexNet/lmi+liveness 599e5893e9c3a063",
    "AlexNet/lmi+subobject 95c026bd4f8eb1f2",
    "AlexNet/lmi+elide 9c96e44752878ae5",
    "AlexNet/gmod bc70c83d0205b5fe",
    "AlexNet/cucatch 50cdac1783ddb2c6",
    "AlexNet/memcheck-dbi 78f480af6653e83f",
    "AlexNet/lmi-dbi 1ed25dd4c420c3c2",
    "CifarNet/lmi+liveness 99ce6bf38a25ca12",
    "CifarNet/lmi+subobject 96e957882c04485c",
    "CifarNet/lmi+elide e090f81810ae36f3",
    "CifarNet/gmod 7aa49a364322114d",
    "CifarNet/cucatch a4d76d209ba8bd0f",
    "CifarNet/memcheck-dbi 36d82f5dbe81e5df",
    "CifarNet/lmi-dbi 408c9b9691663175",
    "GRU/lmi+liveness 9a7b23729135955b",
    "GRU/lmi+subobject 72da9a9896adfb2c",
    "GRU/lmi+elide a9b1ba29955fc503",
    "GRU/gmod d71016fafad5fe5c",
    "GRU/cucatch c48f14b7d9c50203",
    "GRU/memcheck-dbi 0e8e1cf09fcff3e3",
    "GRU/lmi-dbi aeed8fdcf1865d11",
    "LSTM/lmi+liveness cd0b3c56b6e14cf4",
    "LSTM/lmi+subobject 13bc5bf97ea8f3b7",
    "LSTM/lmi+elide 2cb0561579b65f95",
    "LSTM/gmod f68be70e5357a7a2",
    "LSTM/cucatch 075dbb7aec6e67bc",
    "LSTM/memcheck-dbi ae23cfdc2f295123",
    "LSTM/lmi-dbi 4b466da2707ddfb0",
    "bert/lmi+liveness abb3bd11ef5644f8",
    "bert/lmi+subobject fc21ea0335000b33",
    "bert/lmi+elide 8f76e30d68fe776a",
    "bert/gmod fd738c79f3a9e5d3",
    "bert/cucatch b00667ec20094d1c",
    "bert/memcheck-dbi f1f20ea722c55dcd",
    "bert/lmi-dbi 1b65e15308544f56",
    "decoding/lmi+liveness b593479287940224",
    "decoding/lmi+subobject a934dbed718b6e51",
    "decoding/lmi+elide 7dd658954c2be0f2",
    "decoding/gmod 5c83d5bb182d5f20",
    "decoding/cucatch 9dd14a516591dc9d",
    "decoding/memcheck-dbi fa33215240df7e34",
    "decoding/lmi-dbi ff1595d639708584",
    "swin/lmi+liveness 8d9890944a3675a7",
    "swin/lmi+subobject c6be69adb5f25f9d",
    "swin/lmi+elide 20b63b41821b9e3d",
    "swin/gmod d8171eabc997f32e",
    "swin/cucatch 7da6bdeb4ebabeba",
    "swin/memcheck-dbi 5fb07ff380cb9f93",
    "swin/lmi-dbi 65c4e29a67094853",
    "wenet_decoder/lmi+liveness f8435d74b9331fbe",
    "wenet_decoder/lmi+subobject d5a49a7636e16f01",
    "wenet_decoder/lmi+elide af04219498422f4a",
    "wenet_decoder/gmod d62c3c07443947aa",
    "wenet_decoder/cucatch 19d1fa241e817806",
    "wenet_decoder/memcheck-dbi 824efe7a400d1f87",
    "wenet_decoder/lmi-dbi 6c05a7538615c5cb",
    "wenet_encoder/lmi+liveness 8ca14302d21eb5dd",
    "wenet_encoder/lmi+subobject 062544234b964843",
    "wenet_encoder/lmi+elide 4bebd7f472839de4",
    "wenet_encoder/gmod 38262d37215ac6a4",
    "wenet_encoder/cucatch 5b8773a5244306f7",
    "wenet_encoder/memcheck-dbi def2bbadd49309e9",
    "wenet_encoder/lmi-dbi 0840fbb5943a6067",
    "BEVerse/lmi+liveness 84f293f05a9f96a4",
    "BEVerse/lmi+subobject 705b119a668f4a0c",
    "BEVerse/lmi+elide 9b220e3cc6b5ed3f",
    "BEVerse/gmod 3d096b59fa4dc061",
    "BEVerse/cucatch f2df25fcdd888260",
    "BEVerse/memcheck-dbi bcc3b624eb5d5f5a",
    "BEVerse/lmi-dbi e38e13898642e6fa",
    "DETR/lmi+liveness e79331f5fab33d53",
    "DETR/lmi+subobject 7a0488a0f21f671e",
    "DETR/lmi+elide d6757307fa3c8e40",
    "DETR/gmod 2fd33f211c12987d",
    "DETR/cucatch 988536a25f73b20f",
    "DETR/memcheck-dbi b282e672a61d28a1",
    "DETR/lmi-dbi 269d03c6c7fefc48",
    "MOTR/lmi+liveness af97bafe15ea9d75",
    "MOTR/lmi+subobject 12b90043acf57fb2",
    "MOTR/lmi+elide d695c22ab93689f8",
    "MOTR/gmod 938537c65e110d16",
    "MOTR/cucatch 65364a1da3d3b3a6",
    "MOTR/memcheck-dbi a35f9441319a946d",
    "MOTR/lmi-dbi 1a5ca25603c6eea1",
    "segformer/lmi+liveness ad96907e9381cb04",
    "segformer/lmi+subobject 0c12b422ef59ae31",
    "segformer/lmi+elide ab76301a6fffdb9c",
    "segformer/gmod f74e770f6f14e554",
    "segformer/cucatch dba842a00923de38",
    "segformer/memcheck-dbi 392764cbbb7d0df3",
    "segformer/lmi-dbi 891caff119f25cb0",
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

/** "workload/mechanism digest" for every Fig. 12 workload under each of
 *  @p mechanisms, at @p scale on @p tier. */
std::vector<std::string>
fig12Digests(ExecutionTier tier, const std::vector<MechanismKind>& mechanisms,
             double scale)
{
    SweepSpec spec;
    for (const auto& profile : workloadSuite())
        spec.workloads.push_back(profile.name);
    spec.mechanisms = mechanisms;
    spec.scales = {scale};
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
    std::vector<MechanismKind> mechanisms = {MechanismKind::Baseline};
    for (MechanismKind kind : hardwareComparisonMechanisms())
        mechanisms.push_back(kind);
    for (ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        SCOPED_TRACE(std::string("tier=") + executionTierName(tier));
        expectGolden(fig12Digests(tier, mechanisms, 0.25),
                     tier == ExecutionTier::Detailed ? kFig12Golden
                                                     : kFig12FunctionalGolden);
    }
}

/** One mechanism the Fig. 12 tables leave out, on one tier. */
struct OtherMechanismCase
{
    MechanismKind mechanism;
    ExecutionTier tier;
};

/** Every mechanism the Fig. 12 tables leave out, in enum order, on
 *  both tiers. */
std::vector<OtherMechanismCase>
otherMechanismCases()
{
    std::vector<OtherMechanismCase> cases;
    const std::vector<MechanismKind> fig12 = hardwareComparisonMechanisms();
    for (ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional})
        for (MechanismKind kind : allMechanisms())
            if (kind != MechanismKind::Baseline &&
                std::find(fig12.begin(), fig12.end(), kind) == fig12.end())
                cases.push_back({kind, tier});
    return cases;
}

/** The lines of @p golden for @p kind ("workload/<name> digest"). */
std::vector<std::string>
goldenFor(const std::vector<std::string>& golden, MechanismKind kind)
{
    const std::string tag = "/" + std::string(mechanismKindName(kind)) + " ";
    std::vector<std::string> lines;
    for (const std::string& line : golden)
        if (line.find(tag) != std::string::npos)
            lines.push_back(line);
    return lines;
}

/** "<mechanism>_<tier>", the registry name with alphanumerics only
 *  ("lmi+liveness" -> "lmiliveness"), as gtest names need. */
std::string
describe(const OtherMechanismCase& c)
{
    std::string name;
    for (char ch : std::string(mechanismKindName(c.mechanism)))
        if (std::isalnum(static_cast<unsigned char>(ch)))
            name += ch;
    return name + "_" + executionTierName(c.tier);
}

/** gtest prints parameters into ctest names; without this it dumps
 *  the struct's bytes. */
void
PrintTo(const OtherMechanismCase& c, std::ostream* os)
{
    *os << describe(c);
}

TEST(Sim, OtherMechanismGoldenLinesAllBelongToACase)
{
    for (ExecutionTier tier :
         {ExecutionTier::Detailed, ExecutionTier::Functional}) {
        const std::vector<std::string>& golden =
            tier == ExecutionTier::Detailed ? kOtherMechanismsGolden
                                            : kOtherMechanismsFunctionalGolden;
        size_t lines = 0;
        for (const OtherMechanismCase& c : otherMechanismCases())
            if (c.tier == tier)
                lines += goldenFor(golden, c.mechanism).size();
        EXPECT_EQ(lines, golden.size()) << executionTierName(tier);
    }
}

/** One gtest case per (mechanism, tier), so ctest runs them in
 *  parallel. */
class OtherMechanismDigests
    : public testing::TestWithParam<OtherMechanismCase>
{
};

TEST_P(OtherMechanismDigests, CellDigestsMatchGolden)
{
    const OtherMechanismCase& c = GetParam();
    const std::vector<std::string>& golden =
        c.tier == ExecutionTier::Detailed ? kOtherMechanismsGolden
                                          : kOtherMechanismsFunctionalGolden;
    expectGolden(fig12Digests(c.tier, {c.mechanism}, 0.1),
                 goldenFor(golden, c.mechanism));
}

INSTANTIATE_TEST_SUITE_P(
    Sim, OtherMechanismDigests, testing::ValuesIn(otherMechanismCases()),
    [](const testing::TestParamInfo<OtherMechanismCase>& info) {
        return describe(info.param);
    });

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
