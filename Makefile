.PHONY: all build test bench bench-quick bench-compare fuzz-quick serve-quick plane-quick smoke fmt ci clean

all: build

build:
	dune build

test:
	dune runtest

# Full experiment tables + microbenchmarks; writes BENCH_sweeps.json.
bench:
	dune exec bench/main.exe

# Smallest k per table, no microbenchmarks: every table, the chaos grid
# (C1/C4) and the T-scale k = 10^3 rows in seconds. Writes
# BENCH_sweeps.quick.json, BENCH_chaos.quick.json (deterministic in the
# chaos seeds) and BENCH_scale.quick.json. Fails on a within-budget bSM
# violation, a stuck or violated recovery, an unstable GS output, a
# failed epsilon check, a parallel result that differs from the
# sequential one, or a whole-run parallel speedup < 1.0 when both --jobs
# and the recommended domain count are >= 2 (on one core that check is
# skipped with a notice). The development host has 2 vCPUs shared with
# other tenants, so the speedup line also prints host_parallel: near 1
# the host, not the program, failed the check. Runs at --jobs 1 and at
# --jobs 2 (where each lane domain keeps its own engine planes); each
# run's BENCH_chaos.quick.json must equal test/golden/chaos_quick.json
# but for its "jobs" field.
bench-quick:
	dune exec bench/main.exe -- --quick --jobs 1
	cmp BENCH_chaos.quick.json test/golden/chaos_quick.json
	dune exec bench/main.exe -- --quick --jobs 2
	sed 's/^  "jobs": 2,$$/  "jobs": 1,/' BENCH_chaos.quick.json | cmp - test/golden/chaos_quick.json

# Diff two bench files of the same schema — BENCH_sweeps, BENCH_scale,
# BENCH_serve, BENCH_plane or BENCH_chaos — record by record, failing on
# regressions beyond 20% (and 1 unit), on a record or key missing from
# one side, and on a file that is not well-formed JSON.
# Usage: make bench-compare OLD=baseline.json NEW=BENCH_sweeps.json
bench-compare:
	dune exec tools/bench_compare/bench_compare.exe -- $(OLD) $(NEW)

# Deterministic decoder fuzzing over every wire codec (the Codec_corpus
# and the serve frames): per codec, 500 clean round-trips plus 500
# mutated-frame decodes — 29k decoder invocations, fully seeded, well
# under a second. Any exception other than Wire.Malformed fails the run.
fuzz-quick:
	dune exec bin/main.exe -- fuzz --cases 500

# Message-plane micro-bench: the three legs of the batched delivery
# path (arena encode, engine delivery pass, zero-copy slice decode),
# timed separately. Writes BENCH_plane.json; every field except the
# *_ms walls is deterministic, and tools/bench_compare diffs two runs
# under the usual 20% + 1 ms gate. Finishes in under a second.
plane-quick:
	dune exec bench/plane.exe

# Serving smoke: 100 instances through the daemon core over the
# in-process ring transport (the real wire path: encode, admit,
# schedule, execute, respond), after a live-check that runs distributed
# GS at k = 40 (80 parties) through the engine sequentially and with
# each round's parties on a 2-lane pool and requires bit-identical
# results. Exits non-zero unless both pass; writes nothing
# (BENCH_serve.json comes from `bsm load` directly). Finishes in under
# a second.
serve-quick:
	dune exec bin/main.exe -- load --instances 100 --jobs 2 --live-check 40 --out /dev/null

# Fast tier-1 exercise of the domain pool: one small parallel sweep,
# asserted bit-identical to its sequential run.
smoke:
	dune exec test/test_sweep.exe

# Format check. Skipped (with a notice) when ocamlformat is not
# installed, as on the bench container; the version pin lives in
# .ocamlformat.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not found; skipping format check"; \
	fi

ci: build test bench-quick fuzz-quick serve-quick plane-quick fmt

clean:
	dune clean
