"""Command-line entry point: tune, breakdown, calibrate, simulate, monitor, casestudy.

A shared INI config file provides model / scenario / scheme definitions;
command-line flags override file keys.  All numeric output is CSV with a
fixed column order; human-readable summaries go to stderr.  Exit codes:
0 success, 1 configuration error, 2 numeric failure.
"""

import configparser
import csv
import math
import sys
from contextlib import contextmanager, nullcontext

import click
import numpy as np

from . import breakdown as bkd
from . import experiments, profiles, tuning
from .calibration import calibrate_threshold
from .detectors import (FusionRule, GlrParams, GlrScheme, LAlphaScheme, LocalParams,
                        StreamMonitor)
from .errors import ConfigError, NumericError
from .models import ChangeScenario, GrossErrorModel, NominalFamily, OutlierSpec

_KNOWN_KEYS = {
    "model": {"epsilon", "theta0", "theta1", "sigma",
              "outlier.kind", "outlier.mean", "outlier.sd", "outlier.location"},
    "scenario": {"k", "theta_post"},
    "scheme": {"alpha", "d", "b", "fusion", "p0", "window", "variant", "kind", "name"},
    "tune": {"alpha_grid", "samples", "method", "gamma", "k", "m"},
    "breakdown": {"alpha_grid"},
    "calibrate": {"gamma", "reps"},
    "simulate": {"mode", "m_grid", "theta_grid", "eps_grid", "reps", "cap"},
    "casestudy": {"target_arl", "reps", "cap", "p", "length", "counts", "pre_outlier",
                  "fault1_magnitude", "fault2_magnitude", "noise_sd"},
    "monitor": {"stop_on_alarm"},
}


def _load_config(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        base = section.split(":", 1)[0]
        if base not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[base]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        out[section] = dict(parser[section])
    return out


def _merged(cfg, section, key, override, default=None, cast=float):
    if override is not None:
        return override
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key '{key}' (section [{section}])")
        return default
    if cast is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return cast(raw)


def _build_model(cfg, epsilon=None, theta0=None, theta1=None, sigma=None,
                 outlier_sd=None) -> GrossErrorModel:
    fam = NominalFamily(
        theta0=_merged(cfg, "model", "theta0", theta0, 0.0),
        theta1=_merged(cfg, "model", "theta1", theta1, 1.0),
        sigma=_merged(cfg, "model", "sigma", sigma, 1.0))
    kind = _merged(cfg, "model", "outlier.kind", None, "gaussian", str)
    if kind == "gaussian":
        outlier = OutlierSpec.gaussian_outlier(
            mean=_merged(cfg, "model", "outlier.mean", None, 0.0),
            sd=_merged(cfg, "model", "outlier.sd", outlier_sd, 3.0))
    elif kind == "point_mass":
        outlier = OutlierSpec.point_mass_outlier(
            location=_merged(cfg, "model", "outlier.location", None))
    else:
        raise ConfigError(f"unsupported outlier kind in config: {kind!r}")
    return GrossErrorModel(
        epsilon=_merged(cfg, "model", "epsilon", epsilon, 0.0),
        nominal=fam, outlier=outlier)


def _build_scheme(section_cfg: dict[str, str], fam: NominalFamily,
                  alpha=None, d=None, b=None, fusion=None):
    """Scheme from a [scheme] section, with flags overriding its keys.

    A key or flag that the chosen scheme never reads is a configuration error.
    """
    flags = {"alpha": alpha, "d": d, "b": b, "fusion": fusion}
    keys = {**section_cfg, **{k: v for k, v in flags.items() if v is not None}}
    kind = keys.pop("kind", "lalpha")
    name = keys.pop("name", "")
    if kind == "lalpha":
        variant = keys.get("fusion", "soft_threshold")
        reads = {"alpha", "fusion", "b"} | ({"d"} if variant == "soft_threshold" else set())
    elif kind == "glr":
        variant = keys.get("variant", "xie_siegmund")
        reads = {"p0", "variant", "b"} | ({"window"} if variant != "chan1" else set())
    else:
        raise ConfigError(f"unknown scheme kind {kind!r}")
    unread = sorted(set(keys) - reads)
    if unread:
        what = "fusion" if kind == "lalpha" else "variant"
        raise ConfigError(f"scheme key {', '.join(repr(k) for k in unread)} is not read "
                          f"by kind {kind!r} with {what} {variant!r}")
    b = float(keys.get("b", 0.0))
    if kind == "lalpha":
        rule = FusionRule(kind=variant, b=b, d=float(keys.get("d", 0.0)))
        return LAlphaScheme(params=LocalParams(alpha=float(keys.get("alpha", 0.0)), fam=fam),
                            rule=rule, name=name)
    params = GlrParams(p0=float(keys.get("p0", 0.1)), window=int(keys.get("window", 200)),
                       variant=variant)
    return GlrScheme(params=params, b=b, fam=fam, name=name)


def _parse_grid(spec: str) -> np.ndarray:
    """'start:step:stop' inclusive, or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:step:stop, got {spec!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError("grid step must be positive")
        n = int(round((stop - start) / step)) + 1
        return np.round(start + step * np.arange(n), 10)
    return np.array([float(p) for p in spec.split(",")])


def _alpha_grid(spec: str) -> tuple[float, float]:
    """(alpha_max, step) of an alpha grid, which must be 0, s, 2s, ... for its step s.

    The grid commands evaluate exactly that grid, so any other grid is a
    ConfigError rather than silently replaced.  A lone 0 is the grid {0}.
    """
    grid = _parse_grid(spec)
    step = float(grid[1] - grid[0]) if grid.size > 1 else 0.01
    if not (np.isfinite(grid).all() and step > 0
            and np.rint(grid[-1] / step) + 1 == grid.size
            and np.array_equal(grid, np.round(np.arange(grid.size) * step, 10))):
        raise ConfigError(f"alpha grid must be 0, s, 2s, ... for a step s > 0, got {spec!r}")
    return float(grid[-1]), step


@contextmanager
def _open_output(path: str | None):
    """CSV writer on the output file, or on stdout for no path or '-'."""
    if path and path != "-":
        with open(path, "w", newline="") as out:
            yield csv.writer(out)
    else:
        yield csv.writer(sys.stdout)


def _echo_err(msg: str):
    click.echo(msg, err=True)


@click.group()
def cli():
    """Robust multi-stream change-point detection toolkit."""


_global = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="INI config file; flags override file keys."),
    click.option("--output", type=click.Path(), default=None,
                 help="Output CSV path (default: stdout)."),
]

# only the commands that draw random numbers take a seed
_seeded = [
    click.option("--seed", type=int, default=0, show_default=True,
                 help="Master seed; identical seeds give identical output."),
]

# only the commands that simulate run lengths take these
_monte_carlo = [
    click.option("--threads", type=int, default=1, show_default=True,
                 help="Worker processes for Monte Carlo replicates."),
    click.option("--reps", type=int, default=None, help="Monte Carlo replicates."),
]


def _with_options(options):
    def decorate(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return decorate


_with_global = _with_options(_global)
_with_seed = _with_options(_global + _seeded)
_with_monte_carlo = _with_options(_global + _seeded + _monte_carlo)


@cli.command()
@_with_seed
@click.option("--epsilon", type=float, default=None, help="Contamination ratio.")
@click.option("--alpha-grid", default=None,
              help="Alpha grid 0, s, 2s, ...: '0:s:max' or a list.  [default: 0:0.01:2]")
@click.option("--samples", type=int, default=None,
              help="Monte Carlo samples.  [default: 1000000]")
@click.option("--method", type=click.Choice(["monte_carlo", "gauss_hermite_mixture"]),
              default=None, help="Expectation method.  [default: monte_carlo]")
@click.option("--gamma", type=float, default=None, help="ARL target.  [default: 5000]")
@click.option("--k", "k_streams", type=int, default=None, help="Streams.  [default: 100]")
@click.option("--m", "m_streams", type=int, default=None,
              help="Affected streams.  [default: 10]")
def tune(config_path, seed, output, epsilon, alpha_grid, samples,
         method, gamma, k_streams, m_streams):
    """Tuning curve over the alpha grid plus a summary line.

    CSV columns: alpha, lambda, info, lambda_info, efficiency.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg, epsilon=epsilon)
    alpha_max, step = _alpha_grid(_merged(cfg, "tune", "alpha_grid", alpha_grid, "0:0.01:2",
                                          str))
    qc = tuning.QuadratureConfig(
        method=_merged(cfg, "tune", "method", method, "monte_carlo", str),
        n_samples=_merged(cfg, "tune", "samples", samples, 1_000_000, int), seed=seed)
    gamma = _merged(cfg, "tune", "gamma", gamma, 5000.0)
    k_streams = _merged(cfg, "tune", "k", k_streams, 100, int)
    m_streams = _merged(cfg, "tune", "m", m_streams, 10, int)
    rows = tuning.tuning_grid(model.epsilon, model, alpha_max=alpha_max, step=step, qc=qc)
    usable = [r for r in rows if r.objective is not None]
    if not usable:
        raise NumericError("no grid point admits a positive MGF root "
                           "(contamination beyond every breakdown point?)")
    best = max(usable, key=lambda r: r.objective)
    lam = best.lambda_
    d = tuning.d_opt(lam, k_streams, m_streams, gamma)
    b = tuning.b_gamma(lam, k_streams, d, gamma)
    with _open_output(output) as writer:
        writer.writerow(["alpha", "lambda", "info", "lambda_info", "efficiency"])
        for r in rows:
            writer.writerow([r.alpha, r.lambda_, r.info, r.objective, r.efficiency])
    _echo_err(f"alpha_oracle={best.alpha:.4g} lambda={lam:.6g} d_opt={d:.6g} "
              f"b_gamma={b:.6g} (K={k_streams}, m={m_streams}, gamma={gamma:g})")


@cli.command("breakdown")
@_with_global
@click.option("--alpha-grid", default="0:0.01:2", show_default=True,
              help="Alpha grid 0, s, 2s, ...: '0:s:max' or a list.")
@click.option("--theta0", type=float, default=None)
@click.option("--theta1", type=float, default=None)
@click.option("--sigma", type=float, default=None)
def breakdown_cmd(config_path, output, alpha_grid,
                  theta0, theta1, sigma):
    """Breakdown-point curve: alpha, d_alpha, m_alpha, eps_star."""
    cfg = _load_config(config_path)
    model = _build_model(cfg, theta0=theta0, theta1=theta1, sigma=sigma)
    alpha_max, step = _alpha_grid(_merged(cfg, "breakdown", "alpha_grid", alpha_grid,
                                          cast=str))
    reports = bkd.breakdown_grid(model.nominal, alpha_max=alpha_max, step=step)
    with _open_output(output) as writer:
        writer.writerow(["alpha", "d_alpha", "m_alpha", "eps_star"])
        for r in reports:
            writer.writerow([r.alpha, r.d_alpha, r.m_alpha, r.eps_star])
    best = max(reports, key=lambda r: (r.eps_star, -r.alpha))
    _echo_err(f"alpha_opt={best.alpha:.4g} eps_star={best.eps_star:.4g}")


@cli.command()
@_with_monte_carlo
@click.option("--gamma", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--d", type=float, default=None)
@click.option("--fusion", type=click.Choice(["soft_threshold", "max", "sum"]),
              default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--k", "k_streams", type=int, default=None)
def calibrate(config_path, seed, output, threads, reps, gamma, alpha, d, fusion,
              epsilon, k_streams):
    """Smallest global threshold b whose simulated ARL reaches gamma.

    Replicates are advanced until their running maximum reaches a rising bar,
    resuming only those below it, and b is read off the paths; iterations
    counts the bars.  CSV columns: b, arl_mean, arl_se, reps, censored,
    iterations.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg, epsilon=epsilon)
    gamma = _merged(cfg, "calibrate", "gamma", gamma)
    reps = int(_merged(cfg, "calibrate", "reps", reps, 1000))
    K = int(_merged(cfg, "scenario", "k", k_streams, 100))
    scheme = _build_scheme(cfg.get("scheme", {}), model.nominal,
                           alpha=alpha, d=d, b=1.0, fusion=fusion)
    result = calibrate_threshold(scheme, model, gamma,
                                 reps_schedule=(max(50, reps // 5), reps),
                                 seed=seed, K=K, threads=threads)
    with _open_output(output) as writer:
        writer.writerow(["b", "arl_mean", "arl_se", "reps", "censored", "iterations"])
        writer.writerow([result.b, result.arl.mean, result.arl.std_error,
                         result.arl.reps, result.arl.censored, result.iterations])
    _echo_err(f"calibrated b={result.b:.6g}  ARL={result.arl.mean:.1f} "
              f"(se {result.arl.std_error:.2f}, {result.iterations} bars)")


def _schemes_from_config(cfg, fam) -> list:
    """One scheme per [scheme] or [scheme:NAME] section, in section-name order."""
    sections = [s for s in cfg if s == "scheme" or s.startswith("scheme:")]
    return [_build_scheme(cfg[s], fam) for s in sorted(sections)]


@cli.command()
@_with_monte_carlo
@click.option("--mode", type=click.Choice(["delay_table", "arl_vs_epsilon"]),
              default=None)
def simulate(config_path, seed, output, threads, reps, mode):
    """Delay tables or contamination robustness curves for configured schemes.

    CSV columns: scheme, parameter, mean, se, reps, censored.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    mode = _merged(cfg, "simulate", "mode", mode, "delay_table", str)
    reps = int(_merged(cfg, "simulate", "reps", reps, 200))
    cap = int(_merged(cfg, "simulate", "cap", None, 100_000))
    K = int(_merged(cfg, "scenario", "k", None, 100))
    schemes = _schemes_from_config(cfg, model.nominal)
    if not schemes:
        raise ConfigError("simulate needs at least one [scheme] section")
    with _open_output(output) as writer:
        if mode == "delay_table":
            theta_post = _merged(cfg, "scenario", "theta_post", None, model.nominal.theta1)
            m_grid = [int(v) for v in _parse_grid(
                _merged(cfg, "simulate", "m_grid", None, "1,3,5,8,10,15,20,30,50,100", str))]
            theta_grid = [float(v) for v in _parse_grid(
                _merged(cfg, "simulate", "theta_grid", None, str(theta_post), str))]
            scenarios = tuple(ChangeScenario.immediate(K, m, th)
                              for th in theta_grid for m in m_grid if m <= K)
            spec = experiments.ExperimentSpec(
                schemes=tuple(schemes), model_post=model, scenarios=scenarios,
                reps=reps, seed=seed, cap=cap, threads=threads)
            writer.writerow(["scheme", "parameter", "mean", "se", "reps", "censored",
                             "delay_bound_ratio", "error"])
            for row in experiments.run_delay_table(spec):
                est = row.delay
                writer.writerow([row.scheme, row.parameter,
                                 est.mean if est else "", est.std_error if est else "",
                                 est.reps if est else "", est.censored if est else "",
                                 row.delay_bound_ratio if row.delay_bound_ratio else "",
                                 row.error or ""])
        else:
            eps_grid = _parse_grid(_merged(cfg, "simulate", "eps_grid", None,
                                           "0.02:0.02:0.2", str))
            writer.writerow(["scheme", "parameter", "mean", "se", "reps", "censored",
                             "log_arl", "se_log"])
            for pt in experiments.arl_vs_epsilon_curve(schemes, model, eps_grid,
                                                       reps, seed, K, cap, threads):
                writer.writerow([pt.scheme, pt.epsilon, pt.estimate.mean,
                                 pt.estimate.std_error, pt.estimate.reps,
                                 pt.estimate.censored, pt.log_arl, pt.se_log])


@cli.command()
@_with_global
@click.option("--alpha", type=float, default=None)
@click.option("--d", type=float, default=None)
@click.option("--b", type=float, default=None)
@click.option("--fusion", type=click.Choice(["soft_threshold", "max", "sum"]),
              default=None)
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="CSV stream; default: standard input.")
@click.option("--stop-on-alarm/--no-stop-on-alarm", default=None,
              help="Stop after the first alarm.  [default: stop]")
def monitor(config_path, output, alpha, d, b, fusion,
            input_path, stop_on_alarm):
    """Stream monitoring: one 'n,global_stat,alarmed' line per input row.

    Input rows carry K numeric columns; a non-numeric first row is treated
    as a header and skipped.  A non-numeric later row, or a nan or inf value,
    is a configuration error.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    scheme = _build_scheme(cfg.get("scheme", {}), model.nominal,
                           alpha=alpha, d=d, b=b, fusion=fusion)
    stop_on_alarm = _merged(cfg, "monitor", "stop_on_alarm", stop_on_alarm, True, bool)
    with (open(input_path, newline="") if input_path else nullcontext(sys.stdin)) as stream, \
            _open_output(output) as writer:
        writer.writerow(["n", "global_stat", "alarmed"])
        mon = None
        for record in csv.reader(stream):
            if not record:
                continue
            try:
                values = [float(v) for v in record]
            except ValueError:
                if mon is None:
                    continue  # header row
                raise ConfigError(f"non-numeric row at step {mon.n + 1}: {record!r}")
            if mon is None:
                mon = StreamMonitor(scheme, K=len(values))
            decision = mon.step(np.asarray(values))
            writer.writerow([mon.n, f"{decision.global_stat:.10g}",
                             int(decision.alarmed)])
            if decision.alarmed and stop_on_alarm:
                break


@cli.command()
@_with_monte_carlo
@click.option("--target-arl", type=float, default=None)
@click.option("--p", "p_coeffs", type=int, default=None)
@click.option("--pre-outlier", type=click.Choice(["fault1", "fault2"]), default=None)
@click.option("--pool-dir", type=click.Path(), default=None,
              help="Read profile pools from normal/fault1/fault2.csv here "
                   "instead of generating them.")
@click.option("--save-pool", "save_pool_dir", type=click.Path(), default=None,
              help="Write the generated pools as CSV to this directory.")
def casestudy(config_path, seed, output, threads, reps, target_arl, p_coeffs,
              pre_outlier, pool_dir, save_pool_dir):
    """Profile-monitoring study at matched in-control run length.

    Uses the synthetic pool generator by default (or CSV pools via
    --pool-dir), calibrates each configured scheme on the contaminated
    in-control stream and reports detection delays.
    """
    cfg = _load_config(config_path)
    target_arl = _merged(cfg, "casestudy", "target_arl", target_arl, 300.0)
    reps = int(_merged(cfg, "casestudy", "reps", reps, 100))
    cap = int(_merged(cfg, "casestudy", "cap", None, 20 * target_arl))
    pre_outlier = _merged(cfg, "casestudy", "pre_outlier", pre_outlier, "fault1", str)
    if pool_dir is not None:
        pool = profiles.load_pool(pool_dir)
        p = int(_merged(cfg, "casestudy", "p", p_coeffs, pool.normal.shape[1] // 4))
    else:
        length = int(_merged(cfg, "casestudy", "length", None, 2048))
        p = int(_merged(cfg, "casestudy", "p", p_coeffs, length // 4))
        counts = tuple(int(v) for v in _parse_grid(
            _merged(cfg, "casestudy", "counts", None, "307,69,69", str)))
        gen = profiles.ProfileGeneratorConfig(
            length=length,
            noise_sd=_merged(cfg, "casestudy", "noise_sd", None, 1.0),
            fault1_magnitude=_merged(cfg, "casestudy", "fault1_magnitude", None, 2.8),
            fault2_magnitude=_merged(cfg, "casestudy", "fault2_magnitude", None, 14.0))
        pool = profiles.synth_pool(gen, counts, seed)
    if save_pool_dir is not None:
        profiles.save_pool(pool, save_pool_dir)
    fam = NominalFamily(theta0=0.0, theta1=1.0, sigma=1.0)
    schemes = _schemes_from_config(cfg, fam) or [
        LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5056), "robust21"),
        LAlphaScheme(LocalParams(0.51, fam), FusionRule.soft(1.0, 0.7235), "robust51"),
        LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1.0, 3.9357), "cusum"),
    ]
    rows = profiles.case_study_run(pool, schemes, target_arl, p=p, reps=reps,
                                   seed=seed, pre_outlier=pre_outlier, cap=cap,
                                   threads=threads)
    with _open_output(output) as writer:
        writer.writerow(["scheme", "b", "arl_mean", "arl_se", "delay_mean", "delay_se",
                         "reps", "censored"])
        for row in rows:
            writer.writerow([row.scheme, row.b, row.arl.mean, row.arl.std_error,
                             row.delay.mean, row.delay.std_error, row.delay.reps,
                             row.delay.censored])


def main(argv=None) -> int:
    """Dispatch with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except ConfigError as exc:
        _echo_err(f"config error: {exc}")
        return 1
    except NumericError as exc:
        _echo_err(f"numeric failure: {exc}")
        return 2
    except click.UsageError as exc:
        _echo_err(f"usage error: {exc.format_message()}")
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 1


if __name__ == "__main__":
    sys.exit(main())
