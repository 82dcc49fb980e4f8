# Convenience targets for the itqc workspace. Everything builds fully
# offline (dependencies are vendored under vendor/).

CARGO ?= cargo

# The 13 evaluation binaries, in paper order (extensions last).
REPRO_BINS := table1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table2 rb ablations fig_adv

.PHONY: build test bench fleet-bench repro attribution obs-check fmt lint clean

## build: release build of every workspace member
build:
	$(CARGO) build --release

## test: tier-1 gate — release build plus the full test suite
test:
	$(CARGO) build --release
	$(CARGO) test -q

## bench: run the criterion benches (vendored shim prints to stdout)
bench:
	$(CARGO) bench -p itqc-bench

## fleet-bench: the BENCH_BASELINE.json fleetd workload — 256 traps for
## one simulated hour, summary diffed across worker counts (the stdout
## must be bit-identical; only the stderr wall-clock lines may differ)
fleet-bench:
	$(CARGO) build --release -p itqc-fleet --bin fleetd -p itqc-bench --bin loadgen
	./target/release/loadgen --traps=256 --minutes=60 --workers=1 > loadgen.w1.out
	./target/release/loadgen --traps=256 --minutes=60 --workers=auto > loadgen.wauto.out
	diff loadgen.w1.out loadgen.wauto.out
	@cat loadgen.w1.out
	@rm -f loadgen.w1.out loadgen.wauto.out

## attribution: measured per-layer attribution, the layer-accounting
## gate. Each run goes at --threads=1 with --metrics, and the wall-clock
## of the leaf spans below must cover [0.90, 1.02] of the run's
## wall_seconds. Leaves never nest, so a sum above 1 means one was
## opened inside another. Every leaf's share is printed; if a run falls
## short, give the uncovered work a leaf of its own. Spans nested under
## a leaf are printed as a share of their leaf, outside the sum:
## backend.table.build (the joint/chain outcome-table builds) under
## core.executor.run_test. fig8 --fast --sizes=32 is the run whose tables are
## 16-qubit joint tables.
ATTRIBUTION_LEAVES := core.executor.run_test core.protocol.plan core.decoder.covers core.decoder.rank
ATTRIBUTION_NESTED := backend.table.build

attribution:
	$(CARGO) build --release -p itqc-bench --bin fig8 --bin fig9 --bin table2
	@set -e; for run in "fig8 --sizes=8" "fig8 --fast --sizes=32" "fig8 --sizes=64" "fig9 --fast" \
		"table2"; do \
		./target/release/$$run --threads=1 --metrics=attribution.json > /dev/null; \
		awk -v run="$$run" -v leaves="$(ATTRIBUTION_LEAVES)" -v nested="$(ATTRIBUTION_NESTED)" ' \
			function total(name, k, rest) { k = index(spans, "\"" name "\":{"); if (!k) return 0; \
				rest = substr(spans, k); match(rest, /"total_ns":[0-9]+/); \
				return substr(rest, RSTART + 11, RLENGTH - 11) / 1e9 } \
			/"spans":/ { spans = $$0 } \
			/"wall_seconds":/ { wall = $$2 + 0 } \
			END { n = split(leaves, leaf, " "); sum = 0; shares = ""; \
				for (i = 1; i <= n; i++) { t = total(leaf[i]); \
					sum += t / wall; shares = shares sprintf(" %s %.3f", leaf[i], t / wall) } \
				m = split(nested, sub_, " "); parent = total(leaf[1]); \
				for (i = 1; i <= m; i++) shares = shares sprintf(" | %s/%s %.3f", sub_[i], leaf[1], \
					parent > 0 ? total(sub_[i]) / parent : 0); \
				printf "attribution %s: wall %.2f s, leaf sum %.3f |%s\n", run, wall, sum, shares; \
				if (sum < 0.90 || sum > 1.02) { print "leaf sum outside [0.90, 1.02]"; exit 1 } }' \
			attribution.json; \
	done
	@rm -f attribution.json

## obs-check: the observability contract, binary level — (1) the fig8
## and table2 --fast deterministic metrics snapshots are bit-identical
## at 1 vs 8 threads (table2 is the one that exercises the decoder) and
## --metrics leaves stdout byte-identical; (2) same for loadgen at 1 vs
## 8 workers; (3) the registry, spans included, adds no measurable
## overhead to the fig9 hot path: over 5 alternating plain/metrics
## pairs, the median metrics run is within 5% + 0.5 s of the median
## plain run; (4) the counter micro-bench runs clean
obs-check:
	$(CARGO) build --release -p itqc-bench --bin fig8 --bin fig9 --bin table2 --bin loadgen
	./target/release/fig8 --fast --sizes=8 --threads=1 --metrics=obs.t1.json > obs.t1.out
	./target/release/fig8 --fast --sizes=8 --threads=8 --metrics=obs.t8.json > obs.t8.out
	./target/release/fig8 --fast --sizes=8 --threads=1 > obs.plain.out
	diff obs.t1.out obs.t8.out
	diff obs.t1.out obs.plain.out
	@grep '"deterministic"' obs.t1.json > obs.t1.det
	@grep '"deterministic"' obs.t8.json > obs.t8.det
	diff obs.t1.det obs.t8.det
	@echo "obs-check fig8: deterministic snapshot thread-invariant, stdout unchanged"
	./target/release/table2 --fast --threads=1 --metrics=obs.t2t1.json > obs.t2t1.out
	./target/release/table2 --fast --threads=8 --metrics=obs.t2t8.json > obs.t2t8.out
	./target/release/table2 --fast --threads=1 > obs.t2plain.out
	diff obs.t2t1.out obs.t2t8.out
	diff obs.t2t1.out obs.t2plain.out
	@grep '"deterministic"' obs.t2t1.json > obs.t2t1.det
	@grep '"deterministic"' obs.t2t8.json > obs.t2t8.det
	diff obs.t2t1.det obs.t2t8.det
	@grep -q '"core.decoder.covers_ranked"' obs.t2t1.det
	@grep -q '"core.decoder.forward_rows"' obs.t2t1.det
	@echo "obs-check table2: deterministic snapshot thread-invariant, stdout unchanged"
	./target/release/loadgen --traps=32 --minutes=10 --workers=1 --metrics=obs.w1.json \
		> obs.w1.out 2>/dev/null
	./target/release/loadgen --traps=32 --minutes=10 --workers=8 --metrics=obs.w8.json \
		> obs.w8.out 2>/dev/null
	diff obs.w1.out obs.w8.out
	@grep '"deterministic"' obs.w1.json > obs.w1.det
	@grep '"deterministic"' obs.w8.json > obs.w8.det
	diff obs.w1.det obs.w8.det
	@echo "obs-check loadgen: deterministic snapshot worker-invariant, stdout unchanged"
	@set -e; stamps=""; for i in 1 2 3 4 5; do \
		t0=$$(date +%s.%N); ./target/release/fig9 --fast --threads=1 >/dev/null; \
		t1=$$(date +%s.%N); \
		./target/release/fig9 --fast --threads=1 --metrics=obs.fig9.json >/dev/null; \
		t2=$$(date +%s.%N); \
		stamps="$$stamps $$t0 $$t1 $$t2"; \
	done; \
	awk -v stamps="$$stamps" ' \
		function median(v, n, i, j, t) { \
			for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) \
				if (v[j] < v[i]) { t = v[i]; v[i] = v[j]; v[j] = t } \
			return v[(n + 1) / 2] } \
		BEGIN { n = split(stamps, s, " ") / 3; \
			for (i = 1; i <= n; i++) { k = 3 * (i - 1); \
				plain[i] = s[k + 2] - s[k + 1]; metered[i] = s[k + 3] - s[k + 2] } \
			td = median(plain, n); te = median(metered, n); \
			printf "obs-check fig9 overhead: median of %d plain %.2f s, metrics %.2f s\n", n, td, te; \
			if (te > td * 1.05 + 0.5) { print "metrics overhead above the 5% gate"; exit 1 } }'
	$(CARGO) bench -p itqc-obs
	@rm -f obs.t1.* obs.t8.* obs.plain.out obs.t2t1.* obs.t2t8.* obs.t2plain.out obs.w1.* obs.w8.* \
		obs.fig9.json

## repro: regenerate every paper table/figure (see EXPERIMENTS.md)
repro: build
	@set -e; for b in $(REPRO_BINS); do \
		echo; echo "==================== $$b ===================="; \
		$(CARGO) run --release -q -p itqc-bench --bin $$b; \
	done

## fmt: apply the workspace formatting style
fmt:
	$(CARGO) fmt

## lint: what CI enforces — fmt --check, and clippy and rustdoc with
## warnings denied (a doc link to a deleted item fails the build)
lint:
	$(CARGO) fmt --check
	$(CARGO) clippy --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

clean:
	$(CARGO) clean
