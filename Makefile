# Developer entry points for the TDB reproduction.

PYTHON ?= python

# Adversary / differential / fault harness knobs (see docs/TESTING.md):
#   make adversary MODE=counter SEED=41 CLASS=image_replay   # replay one trial
#   make adversary MODE=direct TRIALS=500                    # seeded sweep
#   make differential MODE=counter SEED=7 OPS=50             # replay one seed
#   make fault-sweep MODE=counter SEED=12                    # replay one trial
#   make fault-sweep FAULT_TRIALS=500                        # deeper sweep
#   make adversary-sweep                                     # nightly-depth run
# These spell the default variant only; a failing trial prints the exact
# `python -m repro.testing ...` command, variant flags included.
MODE ?= counter
TRIALS ?= 250
SEEDS ?= 20
OPS ?= 50
FAULT_TRIALS ?= 150

.PHONY: install test test-fast bench bench-smoke bench-check obs-smoke e2e e2e-compare e2e-selftest examples lint all \
	adversary adversary-sweep differential fault-sweep loc

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Every paper bench (benchmarks/test_bench_*.py) with timing disabled, so
# only their assertions run: a tier-1 CI step, so benchmarks/ cannot rot
# unseen.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q --benchmark-disable benchmarks/test_bench_*.py

# The bench runner: the crypto, store, server and paper phases at full
# size, every floor checked, results to BENCH.json (the committed file);
# `python -m repro.bench store --tiny --check` runs one phase in seconds.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro.bench --check --out BENCH.json

# Observability smoke: run a short traced workload and assert the shape
# of the recorded histograms, spans, and events (docs/OBSERVABILITY.md).
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.obs.smoke

# Self-test of the end-to-end benchmark (BENCHMARK.json): every workload
# at --tiny sizes in fresh processes, checking that each declared metric
# is emitted and every counter the benchmark reads is still there.
e2e-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/test_e2e.py -q

# The end-to-end benchmark itself (BENCHMARK.json; benchmarks/e2e/README.md):
#   make e2e WORKLOAD=chunk_churn SEED=7              # one 8 s run, metrics by name
#   make e2e WORKLOAD=chunk_churn SEED=7 TRACE=1      # the per-layer run
#   make e2e WORKLOAD=chunk_churn RUN_SECONDS=        # fixed operation count, not 8 s
#   make e2e WORKLOAD=all RUNS=3 OUT=/tmp/new.json    # medians + quartiles to a file
#   make e2e-compare BASE=/tmp/base.json NEW=/tmp/new.json
WORKLOAD ?= chunk_churn
RUN_SECONDS ?= 8
TRACE ?= 0
e2e:
	$(PYTHON) benchmarks/e2e/run.py --workload $(WORKLOAD) --seed $(or $(SEED),7) \
		$(if $(RUN_SECONDS),--seconds $(RUN_SECONDS)) --trace $(TRACE) \
		$(if $(RUNS),--runs $(RUNS)) $(if $(OUT),--out $(OUT))

e2e-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(BASE) $(NEW)

# Code-only lines (no blanks, comments or docstrings): each file of
# src/repro/chunkstore/ — the measure ROADMAP item 3 tracks — then one
# total per package of src/repro (item 6's trajectory);
# `make loc FILES="src/repro/testing/*.py"` counts just those files.
loc:
	$(PYTHON) tools/loc.py $(FILES)

adversary:
ifdef SEED
	PYTHONPATH=src $(PYTHON) -m repro.testing adversary --mode $(MODE) \
		--seed $(SEED) $(if $(CLASS),--class $(CLASS))
else
	PYTHONPATH=src $(PYTHON) -m repro.testing adversary --mode $(MODE) \
		--trials $(TRIALS)
endif

differential:
ifdef SEED
	PYTHONPATH=src $(PYTHON) -m repro.testing differential --mode $(MODE) \
		--seed $(SEED) --ops $(OPS)
else
	PYTHONPATH=src $(PYTHON) -m repro.testing differential --mode $(MODE) \
		--seeds $(SEEDS) --ops $(OPS)
endif

# Seeded transient/permanent I/O fault-tolerance sweep (both validation
# modes by default; pin one with MODE and replay a trial with SEED).
fault-sweep:
ifdef SEED
	PYTHONPATH=src $(PYTHON) -m repro.testing faults --mode $(MODE) \
		--seed $(SEED) $(if $(POINT),--point $(POINT)) $(if $(RATE),--rate $(RATE))
else
	PYTHONPATH=src $(PYTHON) -m repro.testing faults --mode counter \
		--trials $(FAULT_TRIALS) --crash-sites
	PYTHONPATH=src $(PYTHON) -m repro.testing faults --mode direct \
		--trials $(FAULT_TRIALS) --crash-sites
endif

adversary-sweep:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_adversary.py \
		tests/test_differential.py -q
	PYTHONPATH=src $(PYTHON) -m repro.testing adversary --mode counter --trials 1000
	PYTHONPATH=src $(PYTHON) -m repro.testing adversary --mode direct --trials 1000
	PYTHONPATH=src $(PYTHON) -m repro.testing differential --mode counter --seeds 50
	PYTHONPATH=src $(PYTHON) -m repro.testing differential --mode direct --seeds 50
	PYTHONPATH=src $(PYTHON) -m repro.testing faults --mode counter --trials 500 --crash-sites
	PYTHONPATH=src $(PYTHON) -m repro.testing faults --mode direct --trials 500 --crash-sites

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/digital_goods.py
	$(PYTHON) examples/backup_restore.py
	$(PYTHON) examples/tamper_demo.py
	$(PYTHON) examples/trusted_paging.py

all: test bench
