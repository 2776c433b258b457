/// \file
/// Plain-text result tables for benchmark output.

#pragma once

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace vdom::sim {

/// Column-aligned text table (the benches print paper-style rows with it).
class Table {
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    Table &
    columns(std::vector<std::string> names)
    {
        header_ = std::move(names);
        return *this;
    }

    Table &
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
        return *this;
    }

    /// Formats a double with \p digits decimals.
    static std::string
    num(double value, int digits = 1)
    {
        std::ostringstream out;
        out << std::fixed << std::setprecision(digits) << value;
        return out.str();
    }

    /// Formats a percentage ("3.8%").
    static std::string
    pct(double fraction, int digits = 2)
    {
        return num(fraction * 100.0, digits) + "%";
    }

    void
    print(std::ostream &out = std::cout) const
    {
        std::vector<std::size_t> widths(header_.size(), 0);
        auto widen = [&](const std::vector<std::string> &cells) {
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (i >= widths.size())
                    widths.resize(i + 1, 0);
                widths[i] = std::max(widths[i], cells[i].size());
            }
        };
        widen(header_);
        for (const auto &r : rows_)
            widen(r);

        out << "== " << title_ << " ==\n";
        auto print_row = [&](const std::vector<std::string> &cells) {
            for (std::size_t i = 0; i < widths.size(); ++i) {
                std::string cell = i < cells.size() ? cells[i] : "";
                out << std::left << std::setw(static_cast<int>(widths[i]) + 2)
                    << cell;
            }
            out << "\n";
        };
        print_row(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        out << std::string(total, '-') << "\n";
        for (const auto &r : rows_)
            print_row(r);
        out << "\n";
    }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace vdom::sim
