"""Command-line front end: config ingestion, dispatch, table/CSV/JSON emission.

Exit codes: 0 success, 2 validation error (bad config or input file),
3 numerical failure, 64 usage error / unknown command. The ``EUVQ_LOG``
environment variable sets the logging level. Identical config and seed
always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import absorption, cdf, grid, planewave, qarith, spectro
from .core import (REQUIRED, AbsorptionSpec, NumericalError, PlaneWaveSpec, ValidationError,
                   read_dataclass, read_fields, read_numbers)

logger = logging.getLogger("euvq")

COMMANDS = ("estimate-absorption", "estimate-photoemission", "emulate-absorption",
            "emulate-photoemission", "cdf", "arith-verify")

EX_OK = 0
EX_VALIDATION = 2
EX_NUMERICAL = 3
EX_USAGE = 64


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None
    output_path: str | None
    seed: int
    format: str

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command '{self.command}'")
        if self.format not in ("json", "csv", "table"):
            raise ValidationError("format must be json, csv, or table")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in unsigned 64 bits")


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


def _emit(text: str, output_path: str | None) -> None:
    try:
        if output_path:
            with open(output_path, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc


def _sweep(data, spec_cls):
    if isinstance(data, dict) and "sweep" in data:
        entries = read_fields(data, {"sweep": (list, REQUIRED)}, "sweep file")["sweep"]
        if not entries:
            raise ValidationError("sweep must hold at least one spec")
        return [spec_cls.from_dict(entry) for entry in entries]
    return [spec_cls.from_dict(data)]


def _report_rows_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run_estimate_absorption(config: RunConfig) -> int:
    data = _load_json(resolve_input(config.input_path))
    specs = _sweep(data, AbsorptionSpec)
    reports = [(spec, absorption.absorption_cost(spec)) for spec in specs]
    if config.format == "table":
        _emit(absorption.render_table(reports), config.output_path)
    elif config.format == "json":
        payload = [{"spec": spec.to_dict(), "report": report.to_dict()}
                   for spec, report in reports]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output_path)
    else:
        rows = [[str(spec.n_orbitals), str(rep.logical_qubits),
                 repr(float(rep.gates_per_circuit)), repr(float(rep.overall_gates))]
                for spec, rep in reports]
        _emit(_report_rows_csv(["n_orbitals", "qubits", "gate_cost", "overall_cost"], rows),
              config.output_path)
    return EX_OK


def run_estimate_photoemission(config: RunConfig) -> int:
    data = _load_json(resolve_input(config.input_path))
    specs = _sweep(data, PlaneWaveSpec)
    rows = []
    for spec in specs:
        label = "AE" if spec.method == "AllElectron" else "PP"
        rows.append((label, spec, planewave.photoemission_cost(spec)))
    if config.format == "table":
        _emit(planewave.render_table(rows), config.output_path)
    elif config.format == "json":
        payload = [{"method": label, "spec": spec.to_dict(), "report": rep.to_dict()}
                   for label, spec, rep in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output_path)
    else:
        body = [[label, str(spec.n_bits), repr(float(spec.t_evolution)),
                 str(rep.logical_qubits), repr(float(rep.gates_per_circuit)),
                 repr(float(rep.overall_gates))] for label, spec, rep in rows]
        _emit(_report_rows_csv(
            ["method", "n_bits", "t_au", "qubits", "gate_cost", "overall_cost"], body),
            config.output_path)
    return EX_OK


def run_emulate_absorption(config: RunConfig) -> int:
    cfg = read_fields(_load_json(resolve_input(config.input_path)), {
        "scene": (dict, REQUIRED), "gamma": (float, REQUIRED), "tau": (float, REQUIRED),
        "j_max": (int, REQUIRED), "shots": (int, 1000), "omega": (dict, REQUIRED),
    }, "emulate-absorption config")
    scene = spectro.scene_from_dict(cfg["scene"])
    scan = read_fields(cfg["omega"], {"min": (float, REQUIRED), "max": (float, REQUIRED),
                                      "points": (int, REQUIRED)}, "omega")
    if scan["points"] < 1:
        raise ValidationError("omega.points must be at least 1")
    omegas = np.linspace(scan["min"], scan["max"], scan["points"])
    rows = spectro.spectrum_rows(scene, omegas, cfg["gamma"], cfg["tau"], cfg["j_max"],
                                 cfg["shots"], config.seed)
    body = [[repr(r["omega_Ha"]), repr(r["sigma_exact"]), repr(r["sigma_td"]),
             repr(r["sigma_sampled"]), repr(r["stderr"])] for r in rows]
    text = _report_rows_csv(
        ["omega_Ha", "sigma_exact", "sigma_td", "sigma_sampled", "stderr"], body)
    if config.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    _emit(text, config.output_path)
    return EX_OK


def run_emulate_photoemission(config: RunConfig) -> int:
    cfg = read_fields(_load_json(resolve_input(config.input_path)), {
        "model": (dict, REQUIRED), "filter": (dict, None), "time": (float, 0.0),
        "r_cutoff": (float, REQUIRED), "bins": (dict, {"max": 2.0, "count": 20}),
        "shots": (int, 0), "smooth_width": (float, None),
    }, "emulate-photoemission config")
    model = grid.GridModel.from_config(cfg["model"])
    filt = None if cfg["filter"] is None else read_dataclass(grid.FilterSpec, cfg["filter"])
    bins = read_fields(cfg["bins"], {"max": (float, REQUIRED), "count": (int, REQUIRED)}, "bins")
    if not bins["max"] > 0 or bins["count"] < 1:
        raise ValidationError("bins need max > 0 and count >= 1")
    if cfg["shots"] < 0:
        raise ValidationError("shots must be non-negative")

    psi, energy = grid.ground_state(model)
    logger.info("ground state energy %.6f Ha", energy)
    psi, norm = grid.apply_dipole(model, psi)
    if norm == 0.0:
        raise NumericalError("dipole annihilated the ground state")
    psi = psi / norm
    if filt is not None:
        psi, p_w = grid.gaussian_filter(model, filt, psi, energy)
        logger.info("filter success probability %.3e", p_w)
        if np.linalg.norm(psi) == 0.0:
            raise NumericalError("filter annihilated the state")
        psi = psi / np.linalg.norm(psi)
    psi = grid.evolve(model, psi, cfg["time"])
    leakage = grid.edge_density(model, psi)
    if leakage > 1e-6:
        raise NumericalError(
            f"edge density {leakage:.2e} > 1e-6: wavefunction reached the box "
            "boundary (periodic wrap-around); enlarge the box or shorten t")
    projected, p_c = grid.continuum_project(model, psi, cfg["r_cutoff"],
                                            smooth_width=cfg["smooth_width"])
    logger.info("continuum success probability %.3e", p_c)
    edges = np.linspace(0.0, bins["max"], bins["count"] + 1)
    hist = grid.kinetic_histogram(model, projected, edges, shots=cfg["shots"],
                                  seed=config.seed)
    if config.format == "json":
        payload = {
            "success_probability": hist.success_probability,
            "bin_edges": hist.bin_edges.tolist(),
            "mass": hist.mass.tolist(),
            "sampled_mass": None if hist.sampled_mass is None else hist.sampled_mass.tolist(),
            "shots": hist.shots_used,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output_path)
    else:
        mass = hist.sampled_mass if hist.sampled_mass is not None else hist.mass
        err = hist.stderr if hist.stderr is not None else np.zeros_like(mass)
        body = [[repr(float(hist.bin_edges[i])), repr(float(hist.bin_edges[i + 1])),
                 repr(float(mass[i])), repr(float(err[i]))]
                for i in range(len(mass))]
        _emit(_report_rows_csv(["bin_lo_Ha", "bin_hi_Ha", "mass", "stderr"], body),
              config.output_path)
    return EX_OK


def run_cdf(config: RunConfig) -> int:
    cfg = read_fields(_load_json(resolve_input(config.input_path)), {
        "n_orbitals": (int, REQUIRED), "values": (list, REQUIRED), "l_max": (int, None),
    }, "tensor file")
    n = cfg["n_orbitals"]
    if n < 1:
        raise ValidationError("n_orbitals must be at least 1")
    tensor = cdf.TwoElectronTensor(
        n_orbitals=n, values=read_numbers(cfg["values"], (n,) * 4, "tensor values"))
    l_max = n if cfg["l_max"] is None else cfg["l_max"]
    fact = cdf.double_factorize(tensor, l_max)
    rotations = [cdf.givens_decompose(u) for u, _ in fact.fragments]
    payload = {
        "n_orbitals": n,
        "l_max": l_max,
        "n_fragments": len(fact),
        "reconstruction_error": fact.reconstruction_error,
        "givens_rotations_per_fragment": [len(r) for r in rotations],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.output_path)
    return EX_OK


def run_arith_verify(config: RunConfig) -> int:
    lines = []
    ok = True

    for n in range(1, 5):
        good = all(
            qarith.comp(qarith.BitRegister(n, a), qarith.BitRegister(n, b)) == int(b < a)
            for a in range(2**n) for b in range(2**n))
        ok &= good
        lines.append(f"comp n={n} exhaustive: {'ok' if good else 'MISMATCH'}")

    for n in range(1, 5):
        good = all(
            math.isclose(qarith.be_x_amplitude(alpha, n)[0], alpha / 2**n, abs_tol=1e-12)
            for alpha in range(2**n + 1))
        ok &= good
        lines.append(f"be_x amplitude n={n}: {'ok' if good else 'MISMATCH'}")

    rng = np.random.default_rng(config.seed)
    box, n = 10.0, 3
    mism = 0
    for _ in range(200):
        r_c = float(rng.uniform(0.5, 6.5))
        vals = rng.integers(-(2 ** (n - 1)), 2 ** (n - 1), size=3)
        regs = tuple(qarith.BitRegister.from_int(int(v), n, signed=True) for v in vals)
        emitted = qarith.radius_test(regs, r_c, box)
        want = int(sum(int(v) ** 2 for v in vals) <= qarith.radius_threshold(r_c, n, box))
        mism += emitted != want
    ok &= mism == 0
    lines.append(f"radius_test sampled: {'ok' if mism == 0 else f'{mism} MISMATCHES'}")

    ledger = qarith.position_be_ledger(PlaneWaveSpec(
        eta=58, lambda_zeta=58, omega_cell=200.0**3, n_bits=9, epsilon_be=1e-3,
        delta_filter=0.067, t_evolution=0.0))
    expect = 1666
    good = ledger.total() == expect
    ok &= good
    lines.append(f"position ledger vs closed form: {'ok' if good else 'MISMATCH'}")

    _emit("\n".join(lines) + "\n", config.output_path)
    return EX_OK if ok else EX_NUMERICAL


RUNNERS = {
    "estimate-absorption": run_estimate_absorption,
    "estimate-photoemission": run_estimate_photoemission,
    "emulate-absorption": run_emulate_absorption,
    "emulate-photoemission": run_emulate_photoemission,
    "cdf": run_cdf,
    "arith-verify": run_arith_verify,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated run configuration; returns the process exit code."""
    try:
        if config.command != "arith-verify" and not config.input_path:
            raise ValidationError(f"{config.command} requires --input")
        return RUNNERS[config.command](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EX_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with EX_USAGE
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="euvq",
                     description="Resource estimators and desk-scale emulators "
                                 "for EUV photoresist quantum algorithms.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", dest="input_path", default=None,
                        help="input JSON (path or bundled fixture name)")
    parser.add_argument("--output", dest="output_path", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("EUVQ_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(command=args.command, input_path=args.input_path,
                           output_path=args.output_path, seed=args.seed,
                           format=args.format)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
