.PHONY: build test lint lint-json lint-sarif summaries explain catalog perf-smoke perf-pairs same-outputs report

build:        ## build everything (zero warnings expected)
	dune build @all

test:         ## sixteen alcotest suites + the lint pass
	dune runtest

lint:         ## evolvelint: untyped + typed passes over the whole tree
	dune build @lint

lint-json:    ## machine-readable findings -> LINT.json
	dune exec tools/lint/main.exe -- --root . --format json > LINT.json || true
	@python3 -m json.tool LINT.json > /dev/null && echo "LINT.json valid"

lint-sarif:   ## SARIF 2.1.0 findings -> lint.sarif (CI uploads this)
	dune exec tools/lint/main.exe -- --root . --format sarif > lint.sarif || true
	@python3 -m json.tool lint.sarif > /dev/null && echo "lint.sarif valid"

summaries:    ## per-binding effect summaries + shared-state inventory
	dune exec tools/lint/main.exe -- --root . --summaries

explain:      ## print every lint rule's rationale and provenance
	dune exec tools/lint/main.exe -- --explain all

catalog:      ## regenerate doc/LINT.md from the rule registry
	dune exec tools/lint/main.exe -- --catalog > doc/LINT.md

# One traced, oracle-checked second of every workload BENCHMARK.json
# names, each writing perf-NAME.json, then one untraced second of the
# same workload whose last stdout line, the result line a benchmark
# driver reads (the traced line carries the per-layer metrics instead),
# tools/check_result_line.py checks: it parses, says correct and 0
# failed, and has every end_to_end metric BENCHMARK.json names, finite
# and above 0. Stops at the first failed check (run.sh exits 1, or the
# line check does). CI's perf smoke runs exactly this.
perf-smoke:   ## 1 s of every bench/perf workload, traced and oracle-checked, then its result line checked
	@set -e; \
	workloads=$$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); \
	test -n "$$workloads"; \
	for w in $$workloads; do \
	  bash bench/perf/run.sh --workload "$$w" --seed 1 --seconds 1 --trace 1 --out "perf-$$w.json"; \
	  out=$$(bash bench/perf/run.sh --workload "$$w" --seed 1 --seconds 1 --trace 0); \
	  printf '%s\n' "$$out" | python3 tools/check_result_line.py "$$w"; \
	done

# Alternating paired runs of one workload against another checkout
# (bench/perf/README.md's "Claiming a gain"), one seed per pair from
# SEED (default 1) on, --compare per pair, then both sides' medians and
# quartiles and the change's win count; exits 1 on any "worse".
perf-pairs:   ## PARENT=<checkout> WORKLOAD=<name> PAIRS=<n> [SEED=<first>]: paired runs vs PARENT
	@test -n "$(PARENT)" && test -n "$(WORKLOAD)" && test -n "$(PAIRS)" || \
	  { echo "usage: make perf-pairs PARENT=<checkout> WORKLOAD=<name> PAIRS=<n> [SEED=<first>]" >&2; exit 2; }
	bash tools/perf_pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(or $(SEED),1)"

# Byte-for-byte comparison of every deterministic output with another
# checkout (tools/same_outputs.sh): `report`, each `exp`, `all` and each
# catalog drill's `--report`; names every output that differs, with the
# head of its diff, and exits 1 when any does.
same-outputs: ## PARENT=<checkout>: byte-compare report, exp, all and drills with PARENT
	@test -n "$(PARENT)" || { echo "usage: make same-outputs PARENT=<checkout>" >&2; exit 2; }
	bash tools/same_outputs.sh "$(PARENT)"

report:       ## regenerate RESULTS.md
	dune exec bin/evolvenet.exe -- report -o RESULTS.md
