/**
 * @file
 * Plain-text table printer used by the bench harnesses to render the
 * paper's tables and figure data series in a diff-friendly format.
 */

#pragma once

#include <string>
#include <vector>

namespace lmi {

/**
 * Accumulates rows of strings and renders them column-aligned.
 *
 * Usage:
 * @code
 *   TextTable t({"bench", "baseline", "lmi", "overhead"});
 *   t.addRow({"needle", "12345", "12350", "0.04%"});
 *   std::cout << t.render();
 * @endcode
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render the whole table, trailing newline included. */
    std::string render() const;

    /**
     * Render as RFC-4180-style CSV (header first, separators skipped,
     * cells quoted only when they need it). This is the one CSV emitter
     * in the codebase: bench output and the ExperimentRunner's sweep
     * export both format through it.
     */
    std::string renderCsv() const;

    /** Number of data rows added (separators excluded). */
    size_t rowCount() const;

  private:
    size_t columns_;
    std::vector<std::vector<std::string>> rows_; // empty vector == separator
};

/** Format @p v with @p digits decimal places. */
std::string fmtF(double v, int digits = 2);

/** Format @p v as a percentage string, e.g. "18.73%". */
std::string fmtPct(double v, int digits = 2);

/** Format @p v as a multiplicative factor, e.g. "32.98x". */
std::string fmtX(double v, int digits = 2);

/** CSV-quote @p cell when it contains a comma, quote, or newline. */
std::string csvEscape(const std::string& cell);

/** Escape a string for embedding in a JSON literal (no quotes added). */
std::string jsonEscape(const std::string& s);

/** @p s left-aligned in a field of @p width (never truncates). */
std::string padRight(std::string s, size_t width);

/** @p s right-aligned in a field of @p width (never truncates). */
std::string padLeft(std::string s, size_t width);

/** A horizontal rule of @p width copies of @p fill. */
std::string ruleLine(size_t width, char fill = '=');

} // namespace lmi
