// Shared scaffolding for the experiment binaries.
//
// Every tbl_* / fig* binary accepts:
//   --seed=N   top-level seed (default 2012, the paper's venue year)
//   --reps=N   instances per configuration row
//   --csv      emit CSV instead of the aligned ASCII table
// and prints one table whose meaning is documented in EXPERIMENTS.md.
#pragma once

#include <iostream>
#include <string>

#include "stats.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace busytime::bench {

struct Common {
  std::uint64_t seed = 2012;
  int reps = 20;
  bool csv = false;
};

inline Common parse_common(int argc, char** argv) {
  const Flags flags(argc, argv);
  Common c;
  c.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2012));
  c.reps = static_cast<int>(flags.get_int("reps", 20));
  c.csv = flags.get_bool("csv");
  return c;
}

inline void emit(const Table& table, const Common& c, const std::string& title,
                 const std::string& anchor) {
  if (c.csv) {
    table.print_csv(std::cout);
    return;
  }
  std::cout << "== " << title << "\n";
  std::cout << "   paper anchor: " << anchor << "   (seed=" << c.seed
            << ", reps=" << c.reps << ")\n";
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace busytime::bench
