#!/usr/bin/env python3
"""Docs consistency checks, run by the CI docs job.

1. Dead-link check: every relative markdown link in README.md and docs/*.md
   must resolve to an existing file (anchors and external URLs are skipped).
2. Registry cross-check: the solver names documented in docs/SOLVERS.md must
   match `busytime_cli --list-solvers --json` exactly, so the catalog cannot
   silently drift from the registry.
3. Bench-catalog cross-check: every bench/*.cpp binary must have a
   backtick-quoted row in docs/EXPERIMENTS.md, and every binary the catalog
   names must exist, so the experiment catalog cannot drift either.
4. Metric-catalog cross-check: the metric names documented in
   docs/OBSERVABILITY.md must match `busytime_cli --list-metrics --json`
   exactly (both directions), so the observability catalog cannot drift
   from obs::kMetricCatalog.
5. Lint-rule cross-check: the rule table in docs/CORRECTNESS.md must match
   `lint_project.py --list-rules` exactly (both directions), so the
   documented lint contract cannot drift from the enforced one.

Usage: check_docs.py [--cli=PATH_TO_BUSYTIME_CLI]
       (omit --cli to skip the checks that need the built CLI)
"""

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Backtick-quoted names in the first column of a markdown table row.
SOLVER_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|")
# Metric names are dotted (service.requests, exec.busy_us_total).
METRIC_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|")


def check_links():
    failures = []
    files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    for md in files:
        for line_no, line in enumerate(md.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                path = target.split("#")[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    failures.append(f"{md.relative_to(REPO)}:{line_no}: "
                                    f"dead link -> {target}")
    return failures


def check_solver_catalog(cli):
    documented = set()
    for line in (REPO / "docs" / "SOLVERS.md").read_text().splitlines():
        match = SOLVER_ROW_RE.match(line.strip())
        if match:
            documented.add(match.group(1))
    # Option-table rows are not solver names; only count names the registry
    # could know.  (The options table uses `key=value` cells, which the
    # regex already rejects.)
    out = subprocess.run([cli, "--list-solvers", "--json"],
                         check=True, capture_output=True, text=True).stdout
    registered = {entry["name"] for entry in json.loads(out)}

    failures = []
    for name in sorted(registered - documented):
        failures.append(f"docs/SOLVERS.md: solver '{name}' is registered "
                        f"but not documented")
    for name in sorted(documented - registered):
        failures.append(f"docs/SOLVERS.md: solver '{name}' is documented "
                        f"but not registered")
    if not failures:
        print(f"solver catalog ok: {len(registered)} solvers documented")
    return failures


def check_metric_catalog(cli):
    documented = set()
    for line in (REPO / "docs" / "OBSERVABILITY.md").read_text().splitlines():
        match = METRIC_ROW_RE.match(line.strip())
        if match and "." in match.group(1):  # dotted names only: skip
            documented.add(match.group(1))   # span/option table rows
    out = subprocess.run([cli, "--list-metrics", "--json"],
                         check=True, capture_output=True, text=True).stdout
    registered = {entry["name"] for entry in json.loads(out)}

    failures = []
    for name in sorted(registered - documented):
        failures.append(f"docs/OBSERVABILITY.md: metric '{name}' is "
                        f"registered but not documented")
    for name in sorted(documented - registered):
        failures.append(f"docs/OBSERVABILITY.md: metric '{name}' is "
                        f"documented but not registered")
    if not failures:
        print(f"metric catalog ok: {len(registered)} metrics documented")
    return failures


def check_bench_catalog():
    text = (REPO / "docs" / "EXPERIMENTS.md").read_text()
    documented = set(re.findall(r"`((?:tbl_|fig|perf_)[a-z0-9_]+)`", text))
    built = {src.stem for src in (REPO / "bench").glob("*.cpp")}

    failures = []
    for name in sorted(built - documented):
        failures.append(f"docs/EXPERIMENTS.md: bench binary '{name}' exists "
                        f"but is not catalogued")
    for name in sorted(documented - built):
        failures.append(f"docs/EXPERIMENTS.md: '{name}' is catalogued but "
                        f"bench/{name}.cpp does not exist")
    if not failures:
        print(f"bench catalog ok: {len(built)} binaries catalogued")
    return failures


def check_lint_rule_catalog():
    # Backtick-quoted kebab-case ids in the first column of the rule table.
    rule_row_re = re.compile(r"^\|\s*`([a-z][a-z0-9-]+)`\s*\|")
    documented = set()
    for line in (REPO / "docs" / "CORRECTNESS.md").read_text().splitlines():
        match = rule_row_re.match(line.strip())
        if match:
            documented.add(match.group(1))
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "lint_project.py"),
         "--list-rules"],
        check=True, capture_output=True, text=True).stdout
    enforced = {line.split("\t")[0] for line in out.splitlines() if line}

    failures = []
    for name in sorted(enforced - documented):
        failures.append(f"docs/CORRECTNESS.md: lint rule '{name}' is "
                        f"enforced but not documented")
    for name in sorted(documented - enforced):
        failures.append(f"docs/CORRECTNESS.md: lint rule '{name}' is "
                        f"documented but not enforced by lint_project.py")
    if not failures:
        print(f"lint rule catalog ok: {len(enforced)} rules documented")
    return failures


def main():
    cli = None
    for arg in sys.argv[1:]:
        if arg.startswith("--cli="):
            cli = arg[len("--cli="):]
        else:
            sys.exit(f"unknown argument: {arg}")

    failures = check_links()
    if not failures:
        print("link check ok")
    failures += check_bench_catalog()
    failures += check_lint_rule_catalog()
    if cli:
        failures += check_solver_catalog(cli)
        failures += check_metric_catalog(cli)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
