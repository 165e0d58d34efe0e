"""Command-line front end: input loading, dispatch, table/CSV/JSON emission.

Each subcommand maps the parsed input JSON (``None`` for ``arith-verify``) and
the seed to an ``Output``; ``run`` alone reads the input, renders the format
and writes the result. Each runner imports the modules it needs as its first
lines, so importing this module loads only the standard library and
``euvq.core``: the estimators and ``arith-verify`` do not load numpy. Exit
codes: 0 success, 2 validation error (bad config or input file, or a result
beyond the float range), 3 numerical failure, 64 usage error / unknown
command. Identical config and seed always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

from .core import (MAX_SHOTS, REQUIRED, AbsorptionSpec, NumericalError, PlaneWaveSpec,
                   ValidationError, _at_least, _between, _POSITIVE, _refuse, read_dataclass,
                   read_fields, read_numbers)

EX_OK = 0
EX_VALIDATION = 2
EX_NUMERICAL = 3
EX_USAGE = 64

MAX_OMEGA_POINTS = 2**20  # largest emulate-absorption frequency grid
MAX_BIN_COUNT = 2**20     # largest emulate-photoemission kinetic-energy histogram


@dataclass(frozen=True)
class Output:
    """A command's result in each form it has; ``ok`` False makes the run exit 3."""

    data: object = None          # JSON-serializable
    rows: list | None = None     # CSV, header row first
    text: str | None = None
    ok: bool = True


def render(output: Output, fmt: str) -> str:
    """``output`` in format ``fmt`` if it has that form, else in its first of CSV, JSON, text.

    ``--format json`` writes with ``indent=2``, which runs the standard
    library's pure-Python encoder rather than its C one. On the bundled
    fixtures that costs, per warm command, 0.07 ms (``corollary_imeph.json``)
    to 0.38 ms (``table2_ae.json``, ``table2_pp.json``) for the estimators and
    0.65 ms for ``emulate-absorption`` on ``scene_two_level.json``: 25-55% of
    each command, and at 1.7 ms the largest cost left in a warm pass of
    ``perfbench``'s ``cli-light`` workload (Python 3.11, 2 shared Xeon vCPUs).
    """
    forms = {"csv": output.rows, "json": output.data, "table": output.text}
    if forms[fmt] is None:
        fmt = next(name for name, form in forms.items() if form is not None)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(output.rows)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(output.data, indent=2, sort_keys=True) + "\n"
    return output.text


def resolve_input(path: str) -> str:
    """Existing file path, else a bundled fixture of the same name."""
    if os.path.exists(path):
        return path
    candidate = resources.files("euvq").joinpath("fixtures", path)
    if candidate.is_file():
        return str(candidate)
    raise ValidationError(f"input file '{path}' not found (and not a bundled fixture)")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ValidationError(f"number out of range in {path}: {exc}") from exc


def _sweep(data, spec_cls):
    if isinstance(data, dict) and "sweep" in data:
        entries = read_fields(data, {"sweep": (list, REQUIRED, (len, "a non-empty list"))},
                              "sweep file")["sweep"]
        return [spec_cls.from_dict(entry) for entry in entries]
    return [spec_cls.from_dict(data)]


def run_estimate_absorption(data, seed: int) -> Output:
    from . import absorption

    reports = [(spec, absorption.absorption_cost(spec)) for spec in _sweep(data, AbsorptionSpec)]
    return Output(
        data=[{"spec": spec.to_dict(), "report": rep.to_dict()} for spec, rep in reports],
        rows=[["n_orbitals", "qubits", "gate_cost", "overall_cost"],
              *([spec.n_orbitals, rep.logical_qubits, float(rep.gates_per_circuit),
                 float(rep.overall_gates)] for spec, rep in reports)],
        text=absorption.render_table(reports))


def run_estimate_photoemission(data, seed: int) -> Output:
    from . import planewave

    rows = [("AE" if spec.method == "AllElectron" else "PP", spec,
             planewave.photoemission_cost(spec)) for spec in _sweep(data, PlaneWaveSpec)]
    return Output(
        data=[{"method": label, "spec": spec.to_dict(), "report": rep.to_dict()}
              for label, spec, rep in rows],
        rows=[["method", "n_bits", "t_au", "qubits", "gate_cost", "overall_cost"],
              *([label, spec.n_bits, float(spec.t_evolution), rep.logical_qubits,
                 float(rep.gates_per_circuit), float(rep.overall_gates)]
                for label, spec, rep in rows)],
        text=planewave.render_table(rows))


def run_emulate_absorption(data, seed: int) -> Output:
    import numpy as np

    from . import spectro

    cfg = read_fields(data, {
        "scene": (dict, REQUIRED), "gamma": (float, REQUIRED, _POSITIVE),
        "tau": (float, REQUIRED, _POSITIVE), "j_max": (int, REQUIRED, _at_least(0)),
        "shots": (int, 1000), "omega": (dict, REQUIRED),
    }, "emulate-absorption config")
    scene = spectro.scene_from_dict(cfg["scene"])
    scan = read_fields(cfg["omega"], {"min": (float, REQUIRED), "max": (float, REQUIRED),
                                      "points": (int, REQUIRED, _between(1, MAX_OMEGA_POINTS))},
                       "omega")
    if not math.isfinite(scan["max"] - scan["min"]):
        _refuse("max", "omega", f"a finite distance from 'min' = {scan['min']:g}", scan["max"])
    omegas = np.linspace(scan["min"], scan["max"], scan["points"])
    rows = spectro.spectrum_rows(scene, omegas, cfg["gamma"], cfg["tau"], cfg["j_max"],
                                 cfg["shots"], seed)
    return Output(data=rows, rows=[spectro.SPECTRUM_COLUMNS, *(list(r.values()) for r in rows)])


def run_emulate_photoemission(data, seed: int) -> Output:
    import numpy as np

    from . import grid

    cfg = read_fields(data, {
        "model": (dict, REQUIRED), "filter": (dict, None), "time": (float, 0.0),
        "r_cutoff": (float, REQUIRED), "bins": (dict, {"max": 2.0, "count": 20}),
        "shots": (int, 0, _between(0, MAX_SHOTS)),
    }, "emulate-photoemission config")
    model = grid.GridModel.from_config(cfg["model"])  # checks the energy reach itself
    grid.check_r_cutoff(model, cfg["r_cutoff"])
    filt = None if cfg["filter"] is None else read_dataclass(grid.FilterSpec, cfg["filter"])
    bins = read_fields(cfg["bins"], {"max": (float, REQUIRED),
                                     "count": (int, REQUIRED, _between(1, MAX_BIN_COUNT))}, "bins")
    edges = np.linspace(0.0, bins["max"], bins["count"] + 1)
    if not np.all(np.diff(edges) > 0):
        _refuse("max", "bins", f"positive and split into {bins['count']} bins with increasing "
                f"edges", bins["max"])

    psi, energy, p_w = grid.filter_and_evolve(model, filt, cfg["time"])
    leakage = grid.edge_density(model, psi)
    if leakage > 1e-6:
        raise NumericalError(
            f"edge density {leakage:.2e} > 1e-6: wavefunction reached the box "
            "boundary (periodic wrap-around); enlarge 'box_length' or shorten 'time'")
    projected, _ = grid.continuum_project(model, psi, cfg["r_cutoff"])
    hist = grid.kinetic_histogram(model, projected, edges, shots=cfg["shots"], seed=seed)
    mass = hist.sampled_mass if hist.sampled_mass is not None else hist.mass
    err = hist.stderr if hist.stderr is not None else np.zeros_like(mass)
    return Output(
        data={"ground_energy_Ha": energy,
              "filter_success_probability": p_w,
              "edge_density": leakage,
              "escape_energy_Ha": grid.escape_energy(cfg["r_cutoff"], cfg["time"]),
              "potential_at_cutoff_Ha": grid.potential_at_cutoff(model, cfg["r_cutoff"]),
              "success_probability": hist.success_probability,
              "bin_edges": hist.bin_edges.tolist(),
              "mass": hist.mass.tolist(),
              "sampled_mass": None if hist.sampled_mass is None else hist.sampled_mass.tolist(),
              "shots": hist.shots_used},
        rows=[["bin_lo_Ha", "bin_hi_Ha", "mass", "stderr"],
              *zip(edges[:-1].tolist(), edges[1:].tolist(), mass.tolist(), err.tolist())])


def run_cdf(data, seed: int) -> Output:
    from . import cdf

    cfg = read_fields(data, {
        "n_orbitals": (int, REQUIRED, _at_least(1)), "values": (list, REQUIRED),
        "l_max": (int, None),
    }, "tensor file")
    n = cfg["n_orbitals"]
    tensor = cdf.TwoElectronTensor(
        n_orbitals=n, values=read_numbers(cfg["values"], (n,) * 4, "field 'values' in tensor file"))
    l_max = n if cfg["l_max"] is None else cfg["l_max"]
    fact = cdf.double_factorize(tensor, l_max)
    rotations = [cdf.givens_decompose(u) for u, _ in fact.fragments]
    return Output(data={
        "n_orbitals": n,
        "l_max": l_max,
        "n_fragments": len(fact),
        "reconstruction_error": fact.reconstruction_error,
        "givens_rotations_per_fragment": [len(r) for r in rotations],
    })


def run_arith_verify(data, seed: int) -> Output:
    import random

    from . import planewave, qarith

    lines = []
    ok = True

    # each register is built once and picked by value; the oracles read the plain integers
    for n in range(1, 5):
        regs = [qarith.BitRegister.from_int(v, n) for v in range(2**n)]
        good = all(qarith.comp(regs[a], regs[b]) == int(b < a)
                   for a in range(2**n) for b in range(2**n))
        ok &= good
        lines.append(f"comp n={n} exhaustive: {'ok' if good else 'MISMATCH'}")

    for n in range(1, 5):
        good = all(
            math.isclose(qarith.be_x_amplitude(alpha, n)[0], alpha / 2**n, abs_tol=1e-12)
            for alpha in range(2**n + 1))
        ok &= good
        lines.append(f"be_x amplitude n={n}: {'ok' if good else 'MISMATCH'}")

    rng = random.Random(seed)
    box, n = 10.0, 3
    box_num, box_den = box.as_integer_ratio()
    coords = {v: qarith.BitRegister.from_int(v, n, signed=True)
              for v in range(-(2 ** (n - 1)), 2 ** (n - 1))}
    mism = 0
    for _ in range(200):
        r_c = rng.uniform(0.5, 6.5)
        vals = [rng.randrange(-(2 ** (n - 1)), 2 ** (n - 1)) for _ in range(3)]
        emitted = qarith.radius_test(tuple(coords[v] for v in vals), r_c, box)
        # the oracle from the definition, not from qarith: inside when
        # sum v^2 < (r_c 2^n / box)^2, compared in exact integers
        r_num, r_den = r_c.as_integer_ratio()
        want = int(sum(v**2 for v in vals) * (r_den * box_num) ** 2
                   < (r_num * box_den * 2**n) ** 2)
        mism += emitted != want
    ok &= mism == 0
    lines.append(f"radius_test sampled: {'ok' if mism == 0 else f'{mism} MISMATCHES'}")

    spec = PlaneWaveSpec(eta=58, lambda_zeta=58, omega_cell=200.0**3, n_bits=9,
                         epsilon_be=1e-3, delta_filter=0.067, t_evolution=0.0)
    good = qarith.position_be_toffolis(spec) == planewave.dipole_block_encoding_cost(spec)
    ok &= good
    lines.append(f"position block-encoding Toffolis vs closed form: "
                 f"{'ok' if good else 'MISMATCH'}")

    return Output(text="\n".join(lines) + "\n", ok=ok)


RUNNERS = {
    "estimate-absorption": run_estimate_absorption,
    "estimate-photoemission": run_estimate_photoemission,
    "emulate-absorption": run_emulate_absorption,
    "emulate-photoemission": run_emulate_photoemission,
    "cdf": run_cdf,
    "arith-verify": run_arith_verify,
}


def run(args: argparse.Namespace) -> int:
    """Load the input, run the command, write its rendered output; returns the exit code."""
    try:
        data = None
        if args.command != "arith-verify":
            if not args.input_path:
                raise ValidationError(f"{args.command} requires --input")
            data = _load_json(resolve_input(args.input_path))
        output = RUNNERS[args.command](data, args.seed)
        text = render(output, args.format)
        try:
            if args.output_path:
                with open(args.output_path, "w", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output: {exc}") from exc
        return EX_OK if output.ok else EX_NUMERICAL
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_VALIDATION
    except OverflowError as exc:
        print(f"error: value out of range: {exc}", file=sys.stderr)
        return EX_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EX_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with EX_USAGE
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``euvq`` parser, built on first use and shared by every later ``main`` call."""
    parser = _Parser(prog="euvq",
                     description="Resource estimators and desk-scale emulators "
                                 "for EUV photoresist quantum algorithms.")
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--input", dest="input_path", default=None,
                        help="input JSON (path or bundled fixture name)")
    parser.add_argument("--output", dest="output_path", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must fit in unsigned 64 bits")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
