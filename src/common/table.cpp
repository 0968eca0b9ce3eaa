#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hpp"

namespace lmi {

TextTable::TextTable(std::vector<std::string> header)
    : columns_(header.size())
{
    if (columns_ == 0)
        lmi_fatal("TextTable requires at least one column");
    rows_.push_back(std::move(header));
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != columns_)
        lmi_fatal("TextTable row has %zu cells, expected %zu",
                  row.size(), columns_);
    rows_.push_back(std::move(row));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back();
}

size_t
TextTable::rowCount() const
{
    size_t n = 0;
    for (const auto& r : rows_)
        if (!r.empty())
            ++n;
    return n - 1; // exclude header
}

std::string
TextTable::render() const
{
    std::vector<size_t> width(columns_, 0);
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::ostringstream out;
    auto emit_sep = [&] {
        for (size_t c = 0; c < columns_; ++c) {
            out << '+' << std::string(width[c] + 2, '-');
        }
        out << "+\n";
    };

    bool first = true;
    for (const auto& row : rows_) {
        if (row.empty()) {
            emit_sep();
            continue;
        }
        if (first)
            emit_sep();
        out << '|';
        for (size_t c = 0; c < columns_; ++c) {
            out << ' ' << row[c]
                << std::string(width[c] - row[c].size() + 1, ' ') << '|';
        }
        out << '\n';
        if (first) {
            emit_sep();
            first = false;
        }
    }
    emit_sep();
    return out.str();
}

std::string
TextTable::renderCsv() const
{
    std::ostringstream out;
    for (const auto& row : rows_) {
        if (row.empty())
            continue; // separators are a text-rendering artifact
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                out << ',';
            out << csvEscape(row[c]);
        }
        out << '\n';
    }
    return out.str();
}

std::string
csvEscape(const std::string& cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

std::string
jsonEscape(const std::string& str)
{
    std::string out;
    out.reserve(str.size());
    for (char c : str) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
padRight(std::string s, size_t width)
{
    if (s.size() < width)
        s.append(width - s.size(), ' ');
    return s;
}

std::string
padLeft(std::string s, size_t width)
{
    if (s.size() < width)
        s.insert(0, width - s.size(), ' ');
    return s;
}

std::string
ruleLine(size_t width, char fill)
{
    return std::string(width, fill);
}

std::string
fmtF(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtPct(double v, int digits)
{
    return fmtF(v, digits) + "%";
}

std::string
fmtX(double v, int digits)
{
    return fmtF(v, digits) + "x";
}

} // namespace lmi
