"""Per-class A/B of the Buchberger runs that one benchmark pass makes.

Runs every request of one pass of each workload of ``bench/corpus.py``
in this process, every library cache cleared per request as in the
benchmark's forked children, and records each ``groebner.buchberger``
input. The inputs fall into four classes by where they come from:

* ``library_grevlex``: the ``groebner_basis`` library requests;
* ``j_grevlex``: grevlex bases asked for by CLI requests (J's basis);
* ``rees_block``: the block-order bases of the Rees elimination;
* ``weighted``: the ``WeightOrder`` bases of the associated graded ring.

For each class it counts the reductions each kernel makes and how many
leave remainder 0, and checks that both return the same bases. Then it
times ``--pairs`` alternating pairs of passes over the class's inputs,
one pass with this tree's kernel and one with the kernel of the tree
given by ``--parent`` (a checkout's ``src`` directory, loaded under
another package name in the same process), and prints one JSON object:
per class and kernel the median and quartiles of the pass times, the
pairs each side won, and the reduction counts.

    python3 tools/kernel_classes.py --parent ../parent/src --pairs 10
"""

import argparse
import contextlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def _classify(order, request) -> str:
    kind = type(order).__name__
    if kind == "WeightOrder":
        return "weighted"
    if kind == "BlockOrder":
        return "rees_block"
    return "library_grevlex" if request.kind == "lib" else "j_grevlex"


def record(seed: int) -> dict:
    """class -> [(generators, order)] over one pass of every workload."""
    import corpus
    import runner
    from gradealg import cli, groebner, simplicial

    calls = {}
    current = [None]
    plain = groebner.buchberger

    def recording(generators, order=groebner.GREVLEX):
        gens = [g for g in generators if g]
        if gens:
            calls.setdefault(_classify(order, current[0]), []).append((gens, order))
        return plain(generators, order)

    caches = [f for m in (groebner, simplicial) for f in vars(m).values() if hasattr(f, "cache_clear")]
    groebner.buchberger = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in corpus.WORKLOADS:
                for index, request in enumerate(corpus.build_pass(workload, seed)):
                    if request.key.startswith("probe."):
                        continue  # the budget probes run into the request limit
                    for cache in caches:
                        cache.cache_clear()
                    current[0] = request
                    paths = runner.paths_for(Path(tmp), index)
                    runner.write_spec(request, paths)
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        if request.kind == "lib":
                            runner._call_library(request, paths)
                        else:
                            cli.main([request.command, "--input", str(paths.spec), "--json", str(paths.report)])
    finally:
        groebner.buchberger = plain
    return calls


def load_parent(src: Path):
    """The ``gradealg`` package under ``src``, imported as ``gradealg_parent``."""
    path = src.resolve() / "gradealg"
    spec = importlib.util.spec_from_file_location(
        "gradealg_parent", path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gradealg_parent"] = module
    spec.loader.exec_module(module)
    return module


def translate(inputs: list, package) -> list:
    """The inputs rebuilt from their text with the other package's classes."""
    out = []
    for gens, order in inputs:
        ring = gens[0].ring
        other = package.PolyRing(ring.variables, package.parse_field(ring.field.name))
        kind = type(order).__name__
        args = {"BlockOrder": "blocks", "WeightOrder": "weights"}.get(kind)
        order = getattr(package.polynomials, kind)(getattr(order, args)) if args else package.GREVLEX
        out.append(([other.parse(str(g)) for g in gens], order))
    return out


def counted(groebner, inputs: list) -> tuple:
    """(bases as text, reductions, zero remainders) of one pass."""
    counts = [0, 0]
    plain = groebner._Reducer.reduce

    def counting(self, h, *args):
        nonempty = bool(h)  # the remainder of an empty tail is no reduction
        rem = plain(self, h, *args)
        counts[0] += nonempty
        counts[1] += nonempty and not rem[0]
        return rem

    groebner._Reducer.reduce = counting
    try:
        bases = [[str(g) for g in groebner.buchberger(gens, order)] for gens, order in inputs]
    finally:
        groebner._Reducer.reduce = plain
    return bases, counts[0], counts[1]


def timed(groebner, inputs: list) -> float:
    start = time.perf_counter()
    for gens, order in inputs:
        groebner.buchberger(gens, order)
    return time.perf_counter() - start


def _summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="src directory of the other tree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    from gradealg import groebner

    parent = load_parent(args.parent)
    out = {}
    for name, inputs in sorted(record(args.seed).items()):
        sides = {"change": (groebner, inputs), "parent": (parent.groebner, translate(inputs, parent))}
        entry = {"runs": len(inputs)}
        bases = {}
        for side, (module, data) in sides.items():
            bases[side], reductions, zero = counted(module, data)
            entry[side] = {"reductions": reductions, "zero_reductions": zero}
        entry["same_bases"] = bases["change"] == bases["parent"]
        times = {"change": [], "parent": []}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                times[side].append(timed(*sides[side]))
        for side in sides:
            entry[side].update(_summary(times[side]))
        entry["change_wins"] = sum(c < p for c, p in zip(times["change"], times["parent"]))
        out[name] = entry
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
