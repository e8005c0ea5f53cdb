"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

Run from the repository root.  The inputs are generated from the seed (and
cached), ``setup_s`` is timed in fresh interpreters, the workload's rounds
run in one worker process, and the outputs are checked here, apart from
``polarnet``.  The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("fixture", "portfolio", "similarity")
DEADLINE_S = 170.0  # every run ends well inside three minutes
SETUP_SAMPLES = 3
IMPORT_MODULES = ("polarnet", "polarnet.errors", "polarnet.network", "polarnet.modularity",
                  "polarnet.communities", "polarnet.infometrics", "polarnet.ideology",
                  "polarnet.reports", "polarnet.structure", "polarnet.timeseries",
                  "polarnet.topics", "polarnet.cli", "scipy.stats")
TIME_IMPORT = ("import time; t = time.perf_counter(); import polarnet.cli; "
               "print(time.perf_counter() - t)")


def child_env(root: Path) -> dict[str, str]:
    """Fresh interpreters see the checkout's sources and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median import time of polarnet.cli over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", TIME_IMPORT], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def measure_imports(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import time per module from ``-X importtime`` (median of three)."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    for _ in range(3):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polarnet.cli"],
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        for line in done.stderr.splitlines():
            parts = [part.strip() for part in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in samples and parts[1].isdigit():
                samples[parts[2]].append(int(parts[1]) / 1e6)
    out = {}
    for name, values in samples.items():
        short = name if name in ("polarnet", "scipy.stats") else name.removeprefix("polarnet.")
        out[f"setup.import.{short}.s"] = statistics.median(values) if values else 0.0
    return out


def reference_problems(root: Path, workdir: Path, env: dict[str, str], timeout: float) -> list[str]:
    """Compare the scale-1 generator with the release-gate test's fixture writer."""
    ours = inputs.reference_fixture()
    theirs = workdir / "criterion10"
    theirs.mkdir(parents=True)
    code = ("import sys; from pathlib import Path; sys.path.insert(0, 'tests'); "
            "from test_acceptance import _write_scale_fixture; "
            f"_write_scale_fixture(Path({str(theirs)!r}))")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        return [f"criterion-10 fixture writer failed: {done.stderr.strip()[-300:]}"]
    names = sorted(path.name for path in theirs.iterdir())
    if names != sorted(path.name for path in ours.iterdir() if path.name != "done"):
        return [f"criterion-10 fixture files differ: {names}"]
    return [f"{name} differs from the criterion-10 fixture" for name in names
            if (theirs / name).read_bytes() != (ours / name).read_bytes()]


def judge(workload: str, root: Path, manifest: dict, out: Path, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every round."""
    attempted = failed = 0
    problems: list[str] = []
    if workload == "portfolio":
        first = rounds[0]["records"]
        verdicts = checks.check_portfolio(root, manifest, first)
    else:
        fx = checks.Fixture(root, manifest)
        verdicts = checks.check_fixture(fx, out / "round0", workload == "similarity")
    for k, one in enumerate(rounds):
        for record in one["records"]:
            op = record["op"]
            found = list(verdicts.get(op, [])) if record["ok"] else [record["error"]]
            if k and record["ok"]:
                if workload == "portfolio":
                    twin = next(r for r in rounds[0]["records"] if r["op"] == op)
                    if (record["q"], record["labels"]) != (twin["q"], twin["labels"]):
                        found.append("result differs from round 0")
                else:
                    found += checks.same_bytes(out / "round0", out / f"round{k}", op)
            attempted += 1
            if found:
                failed += 1
                problems += [f"round {k} {op}: {p}" for p in found[:3]]
    return attempted, failed, problems


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".q"):
        return "Q"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "polarnet" / "__init__.py").is_file():
        print(f"perfbench: no src/polarnet under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    data, manifest = inputs.inputs_for(args.workload, args.seed)
    workdir = HERE / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = measure_setup(env)
        imports = measure_imports(env) if args.trace else {}
        result_path = workdir / "result.json"
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--inputs", str(data), "--out", str(workdir / "out"), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--result", str(result_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started))
        if worker.returncode != 0:
            print(f"perfbench: worker failed:\n{worker.stderr}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
        rounds = result["rounds"]
        attempted, failed, problems = judge(args.workload, data, manifest, workdir / "out", rounds)
        correct = True
        if args.workload == "fixture":
            mismatch = reference_problems(root, workdir, env, DEADLINE_S - (time.perf_counter() - started))
            if mismatch:
                correct = False
                problems += mismatch
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems[:20]:
        print(f"FAIL {line}")
    untraced = [one["wall_s"] for one in (rounds[:-1] if args.trace else rounds)]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"round wall {', '.join(f'{w:.3f}' for w in untraced)} s untraced")
    if args.trace:
        metrics = {**result["trace"], **imports}
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
