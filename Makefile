# Single source of truth for the verify command: CI calls `make verify`, so
# local runs and CI cannot drift.

CARGO ?= cargo

.PHONY: verify verify-mt verify-serve verify-chaos verify-recovery verify-steal serve-smoke build test fmt fmt-check clippy doc benchmark-smoke ab clean

## Tier-1 verify: exactly what CI's main job runs.
verify:
	$(CARGO) build --release && $(CARGO) test -q

## The pool-sensitive suites under a forced multi-thread worker pool —
## the first step of CI's `pool-suites` matrix job (POOL_THREADS=2 and 4
## there).
## Single-thread runs silently skip the pool dispatch paths; this doesn't.
## `radix-sparse` is here for `check_plans`' `Par::Pool` leg (both storage
## layouts — cyclic diagonals and CSR/ELL with its CSC tiles — × every
## plan × all three products), which otherwise only sees the default
## width, and runs a second time in release: a debug build vectorizes
## neither copy of the diagonal kernels (baseline and AVX2, picked from
## the CPU at run time), so only there does their same-bits test compare
## two different codegens; `radix-challenge --lib infer` for the
## per-layer pool leg, which runs RadiX layers on the diagonal storage at
## every width, narrower than a tile included, and again in release, where
## its parameter-built-vs-CSR-built oracle runs uniform layers' broadcast
## forward product against the per-edge one in their real (vectorized)
## codegen; `radix-challenge --test properties`
## for the live-row compaction oracle, whose pool blocks hold other rows
## at each pool width than on one thread, and again in release, where the
## rows it folds to a constant are checked against the vectorized kernels
## that would have computed them.
POOL_THREADS ?= 4
verify-mt:
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p rayon
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-sparse
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q --release -p radix-sparse
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --lib infer
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q --release -p radix-challenge --lib infer
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test properties
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q --release -p radix-challenge --test properties
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test zero_alloc

## The serving-engine suites under a forced multi-thread worker pool —
## run by CI's `pool-suites` job on its POOL_THREADS=2 leg: the crossbeam
## shim's channel/disconnect semantics, the serve unit + integration/property
## suites, and the serving zero-alloc proof (which forces its own 4-thread
## pool internally; it is its own process, so the override is safe).
verify-serve:
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p crossbeam
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --lib serve
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test serve
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test zero_alloc_serve

## The fault-injection suites under a forced multi-thread worker pool —
## run by CI's `pool-suites` job (POOL_THREADS=2 and 4 there): the unit
## tests of radix-nn's fault module (the one fault plan serving and
## training share), the rayon shim's panic-payload propagation, and
## the chaos integration suite (injected engine panics mid-traffic,
## supervised restart, deadline shedding under compute delays, the
## shutdown-under-chaos accounting stress, and the random-fault-schedule
## proptest; the supervisor's coverage lives there too).
verify-chaos:
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p rayon panic
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn --lib fault
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test chaos

## The crash-safe-training suites under a forced multi-thread worker pool
## — run by CI's `pool-suites` job on its POOL_THREADS=2 leg: the checkpoint
## codec round-trip + corruption fuzz (truncations, byte flips, torn
## writes, stale temp files), the kill-at-batch-N bitwise-identical
## resume proptest, the train supervisor's unit coverage (with the
## restart policy both supervisors share), and the
## end-to-end train-crash / checkpoint-fallback / serve-hot-reload
## integration suite.
verify-recovery:
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn --lib checkpoint
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn --lib supervise
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn --lib train
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-nn --test checkpoint
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test recovery

## The work-stealing scheduler torture suites — run by CI's `pool-suites`
## matrix job (POOL_THREADS=2 and 4 there). The steal suite sweeps
## seeded steal orders (dispatch completeness, no double-claim, panic
## propagation with the pool surviving, concurrent independent jobs, the
## priority lane); the online suite runs checkpointed fine-tuning and
## live serve traffic on one pool under train/serve fault injection
## (typed outcomes + bitwise-identical crash resume). The steal suite
## additionally runs at widths 1 (inline-serial fallback) and 8
## (oversubscribed) in every invocation, so each CI matrix job covers
## the full 1/2/4/8 ladder.
verify-steal:
	RADIX_POOL_THREADS=1 $(CARGO) test -q -p rayon --test steal
	RADIX_POOL_THREADS=8 $(CARGO) test -q -p rayon --test steal
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p rayon --test steal
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q -p radix-challenge --test online

## Serving smoke: start the engine, drive concurrent clients against it,
## assert every response is correct and demuxed to its requester in order,
## and shut down cleanly — the release-mode soak CI's `pool-suites` job
## runs on a forced multi-thread pool.
serve-smoke:
	RADIX_POOL_THREADS=$(POOL_THREADS) $(CARGO) test -q --release -p radix-challenge --test serve -- concurrent_clients oversubscribed shutdown

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## Documentation coverage gate: rustdoc warnings (missing docs under the
## crates' deny(missing_docs), broken intra-doc links) fail the build.
## Doctests themselves run under `make test`.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

## The repo's end-to-end benchmark (BENCHMARK.json, benchmark/README.md)
## in smoke mode — one 1-second window per workload with every output
## check on — plus its estimator unit tests. The package is standalone
## (own manifest, builds into benchmark/target).
benchmark-smoke:
	$(CARGO) run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml

## The perf gate: build PARENT and CHANGE, run the end-to-end benchmark on
## both in PAIRS alternating pairs, print a parent/change table per
## workload and metric. Exits 1 when a change median is worse than the
## parent's by more than the metric's BENCHMARK.json bound, a run fails,
## or a larger share of operations fails. `make ab PARENT=HEAD~`.
CHANGE ?= HEAD
PAIRS ?= 10
ab:
	scripts/ab.sh "$(PARENT)" "$(CHANGE)" "$(PAIRS)"

clean:
	$(CARGO) clean
