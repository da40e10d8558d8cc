"""Figure 12 — TDB runtime breakdown for the release experiment.

Paper (total 4209 ms): untrusted store write 81 %, tamper-resistant store
5 %, encryption 4 %, collection store 4 %, hashing 2 %, object store 2 %,
chunk store 1 %, untrusted store read ≈0 %.  "The overhead is dominated by
writes to the untrusted store"; "the overhead of encryption and hashing is
only 6 %".  The experiment flushed the untrusted store 96 times and the
tamper-resistant store 19 times.

We run the release experiment with tracing on, so every ``repro.obs`` span
keeps its nested-exclusive self time (CPU components, summed per layer
prefix), feed the I/O counters to the DiskModel (I/O components), and
print the same table.  The shape checks: untrusted-store writes dominate,
crypto is a small share.  (With paper-era DES the crypto share rises in
pure Python; the default fast cipher keeps the compute/IO ratio honest.)
"""

from benchmarks.conftest import report
from repro.bench.adapters import TdbAdapter
from repro.bench.report import _PAPER_FIG12, figure12_components
from repro.bench.workload import measure


def test_figure12_module_breakdown(benchmark):
    adapter = TdbAdapter()
    result = measure(adapter, "release", profile=True)
    benchmark(lambda: None)  # the experiment above is the measurement
    components = figure12_components(
        result["self_times"], result["read_io_s"], result["write_io_s"], result["tr_io_s"]
    )
    total = sum(components.values())
    rows = [("DB TOTAL", f"{total*1000:.0f} ms", "4209 ms")]
    for module, seconds in components.items():
        rows.append(
            (
                module,
                f"{seconds*1000:.0f} ms ({seconds/total*100:.0f}%)",
                f"{_PAPER_FIG12[module]}%",
            )
        )
    rows.append(("untrusted flushes", str(result["flushes"]), "96"))
    rows.append(("TR flushes", str(result["tr_writes"]), "19"))
    stats = adapter.chunks.stats()  # since format: the load and the experiment
    for label, value in (
        ("bytes encrypted", sum(t["bytes_encrypted"] for t in stats["crypto"].values())),
        ("bytes decrypted", sum(t["bytes_decrypted"] for t in stats["crypto"].values())),
        ("bytes hashed", sum(t["bytes_hashed"] for t in stats["hashing"].values())),
        ("log writes coalesced", stats["log"]["writes_coalesced"]),
    ):
        rows.append((f"{label} (with the load)", f"{value:,.0f}", "n/a"))
    report("Figure 12 runtime analysis", rows)

    # the paper's headline shape claims:
    write_share = components["untrusted store write"] / total
    crypto_share = (components["encryption"] + components["hashing"]) / total
    assert write_share > 0.5, "untrusted-store writes must dominate"
    assert crypto_share < 0.25, "encryption+hashing must be a small share"
    assert components["untrusted store write"] > components["tamper-resistant store"]
