#include "analysis/diagnostic.hpp"

#include <sstream>

#include "common/table.hpp"

namespace lmi::analysis {

const char*
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:      return "note";
      case Severity::Warning:   return "warning";
      case Severity::Error:     return "error";
      case Severity::Violation: return "violation";
    }
    return "?";
}

std::string
Diagnostic::toString() const
{
    std::ostringstream s;
    s << severityName(severity) << ": [" << pass << "] " << function;
    if (value != ir::kNoValue)
        s << " %" << value;
    s << ": " << message;
    return s.str();
}

std::string
Diagnostic::toJson() const
{
    std::ostringstream s;
    s << "{\"severity\":\"" << severityName(severity) << "\",\"pass\":\""
      << jsonEscape(pass) << "\",\"function\":\"" << jsonEscape(function)
      << "\",\"value\":" << value << ",\"message\":\""
      << jsonEscape(message) << "\"}";
    return s.str();
}

size_t
errorCount(const std::vector<Diagnostic>& diags)
{
    size_t n = 0;
    for (const auto& d : diags)
        n += d.severity >= Severity::Error;
    return n;
}

std::string
renderDiagnosticsJson(const std::vector<Diagnostic>& diags)
{
    std::ostringstream s;
    s << "[";
    for (size_t i = 0; i < diags.size(); ++i)
        s << (i ? "," : "") << "\n  " << diags[i].toJson();
    s << (diags.empty() ? "]" : "\n]");
    return s.str();
}

} // namespace lmi::analysis
