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
from functools import partial

import click
import numpy as np
from click.core import ParameterSource

from . import breakdown as bkd
from . import experiments, profiles, tuning
from .calibration import calibrate_threshold
from .detectors import (GLR_CHAN1, GLR_CHAN2, GLR_XS, FusionRule, GlrParams, GlrScheme,
                        LAlphaScheme, LocalParams, StreamMonitor)
from .errors import ConfigError, NumericError
from .models import ChangeScenario, GrossErrorModel, NominalFamily, OutlierSpec

REQUIRED = object()  # the default of a key that has none


class _Finite(click.types.FloatParamType):
    """Any float except nan and +-inf, which would blind a statistic or break a search."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


_F, _I = _Finite(), click.INT


class _Grid(click.ParamType):
    """'start:step:stop' inclusive, or a comma-separated list, of `cast` values."""

    name = "grid"

    def __init__(self, cast=float):
        self.cast = cast

    def convert(self, value, param, ctx):
        try:
            parts = [self.cast(p) for p in value.split(":" if ":" in value else ",")]
        except ValueError:
            self.fail(f"{value!r} is not a grid of {self.cast.__name__} values", param, ctx)
        finite = all(map(math.isfinite, parts))
        if ":" not in value:
            if not finite:
                self.fail(f"{value!r} holds a value that is not finite", param, ctx)
            return parts
        if len(parts) != 3 or not finite or parts[1] <= 0 or parts[2] < parts[0]:
            self.fail("grid must be start:step:stop with step > 0 and stop >= start, "
                      f"got {value!r}", param, ctx)
        start, step, stop = parts
        n = int(round((stop - start) / step)) + 1
        return np.round(start + step * np.arange(n), 10).tolist()


# section -> key -> (click type, default as written in the file); a default
# of None is worked out from other settings where the key is read
SETTINGS = {
    "model": {"epsilon": (_F, "0"), "theta0": (_F, "0"), "theta1": (_F, "1"),
              "sigma": (_F, "1"),
              "outlier.kind": (click.Choice(["gaussian", "point_mass"]), "gaussian"),
              "outlier.mean": (_F, "0"), "outlier.sd": (_F, "3"),
              "outlier.location": (_F, REQUIRED)},
    "scenario": {"k": (_I, "100"), "theta_post": (_F, None)},
    "scheme": {"kind": (click.Choice(["lalpha", "glr"]), "lalpha"), "name": (click.STRING, ""),
               "alpha": (_F, "0"), "d": (_F, "0"), "b": (_F, "0"),
               "fusion": (click.Choice(["soft_threshold", "max", "sum"]), "soft_threshold"),
               "p0": (_F, "0.1"), "window": (_I, "200"),
               "variant": (click.Choice([GLR_XS, GLR_CHAN1, GLR_CHAN2]), GLR_XS)},
    "tune": {"alpha_grid": (_Grid(), "0:0.01:2"), "samples": (_I, "1000000"),
             "method": (click.Choice(["monte_carlo", "gauss_hermite_mixture"]), "monte_carlo"),
             "gamma": (_F, "5000"), "k": (_I, "100"), "m": (_I, "10")},
    "breakdown": {"alpha_grid": (_Grid(), "0:0.01:2")},
    "calibrate": {"gamma": (_F, REQUIRED), "reps": (_I, "1000")},
    "simulate": {"mode": (click.Choice(["delay_table", "arl_vs_epsilon"]), "delay_table"),
                 "m_grid": (_Grid(int), "1,3,5,8,10,15,20,30,50,100"),
                 "theta_grid": (_Grid(), None), "eps_grid": (_Grid(), "0.02:0.02:0.2"),
                 "reps": (_I, "200"), "cap": (_I, "100000")},
    "casestudy": {"target_arl": (_F, "300"), "reps": (_I, "100"), "cap": (_I, None),
                  "p": (_I, None), "length": (_I, "2048"), "counts": (_Grid(int), "307,69,69"),
                  "pre_outlier": (click.Choice(["fault1", "fault2"]), "fault1"),
                  "fault1_magnitude": (_F, "2.8"), "fault2_magnitude": (_F, "14"),
                  "noise_sd": (_F, "1")},
    "monitor": {"stop_on_alarm": (click.BOOL, "true")},
}


def _load_config(path: str | None) -> dict[str, dict]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, dict] = {}
    for section in parser.sections():
        keys = SETTINGS.get("scheme" if section.startswith("scheme:") else section)
        if keys is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        # every value is parsed here, so a malformed one fails even where the
        # command never reads its key
        out[section] = {key: _parse(section, key, raw) for key, raw in parser[section].items()}
    return out


def _parse(section: str, key: str, raw: str):
    """[section] key's value as written, parsed by the key's type."""
    ptype = SETTINGS[section.split(":", 1)[0]][key][0]
    try:
        if ptype is click.BOOL and not raw.strip():  # click reads an empty value as false
            ptype.fail("an empty value is not a valid boolean")
        return ptype.convert(raw, None, None)
    except click.BadParameter as exc:
        raise ConfigError(f"[{section}] {key}: {exc.message}") from None


def _setting(cfg, section: str, key: str, flag=None):
    """The flag, else the file's parsed value, else the table's default
    (None where the caller works it out)."""
    if flag is not None:
        return flag
    if key in cfg.get(section, {}):
        return cfg[section][key]
    default = SETTINGS[section.split(":", 1)[0]][key][1]
    if default is REQUIRED:
        raise ConfigError(f"missing required key '{key}' (section [{section}])")
    return None if default is None else _parse(section, key, default)


def _flag(section: str, key: str, help: str = ""):
    """The flag that overrides [section] key: the key's type, and its default in the help."""
    ptype, default = SETTINGS[section][key]
    name = "--" + key.replace("_", "-")
    if ptype is click.BOOL:
        name += f"/--no-{name[2:]}"
    shown = f"  [default: {default}]" if default not in (None, REQUIRED) else ""
    return click.option(name, type=ptype, default=None, help=(help + shown).strip())


def _build_model(cfg, epsilon=None, theta0=None, theta1=None, sigma=None) -> GrossErrorModel:
    get = partial(_setting, cfg, "model")
    fam = NominalFamily(theta0=get("theta0", theta0), theta1=get("theta1", theta1),
                        sigma=get("sigma", sigma))
    if get("outlier.kind") == "gaussian":
        outlier = OutlierSpec.gaussian_outlier(mean=get("outlier.mean"), sd=get("outlier.sd"))
    else:
        outlier = OutlierSpec.point_mass_outlier(location=get("outlier.location"))
    return GrossErrorModel(epsilon=get("epsilon", epsilon), nominal=fam, outlier=outlier)


def _build_scheme(cfg, section: str, fam: NominalFamily, **flags):
    """Scheme from a [scheme] or [scheme:NAME] section, with flags (alpha, d,
    b, fusion) overriding its keys.

    A key or flag that the chosen scheme never reads is a configuration error.
    """
    def get(key):
        return _setting(cfg, section, key, flags.get(key))

    given = set(cfg.get(section, {})) | {k for k, v in flags.items() if v is not None}
    kind = get("kind")
    if kind == "lalpha":
        variant = get("fusion")
        reads = {"alpha", "fusion", "b"} | ({"d"} if variant == "soft_threshold" else set())
    else:
        variant = get("variant")
        reads = {"p0", "variant", "b"} | ({"window"} if variant != GLR_CHAN1 else set())
    unread = sorted(given - reads - {"kind", "name"})
    if unread:
        what = "fusion" if kind == "lalpha" else "variant"
        raise ConfigError(f"scheme key {', '.join(repr(k) for k in unread)} is not read "
                          f"by kind {kind!r} with {what} {variant!r}")
    if kind == "lalpha":
        return LAlphaScheme(params=LocalParams(alpha=get("alpha"), fam=fam),
                            rule=FusionRule(kind=variant, b=get("b"), d=get("d")),
                            name=get("name"))
    params = GlrParams(p0=get("p0"), window=get("window"), variant=variant)
    return GlrScheme(params=params, b=get("b"), fam=fam, name=get("name"))


def _alpha_grid(grid: list) -> tuple[float, float]:
    """(alpha_max, step) of an alpha grid, which must be 0, s, 2s, ... for its step s.

    The grid commands evaluate exactly that grid, so any other grid is a
    ConfigError rather than silently replaced.  A lone 0 is the grid {0}.
    """
    step = grid[1] - grid[0] if len(grid) > 1 else 0.01
    # the point count first, so that alpha_points builds no more points than the grid has
    if not (step > 0 and abs(grid[-1] / step + 1 - len(grid)) < 0.5
            and grid == tuning.alpha_points(grid[-1], step)):
        raise ConfigError(f"alpha grid must be 0, s, 2s, ... for a step s > 0, got {grid}")
    return grid[-1], step


@contextmanager
def _open_output(path: str | None):
    """CSV writer on the output file, or on stdout for no path or '-'."""
    if path and path != "-":
        with open(path, "w", newline="") as out:
            yield csv.writer(out)
    else:
        yield csv.writer(sys.stdout)


def _estimate(est) -> list:
    """A RunEstimate's CSV cells: mean, se, reps, censored."""
    return [est.mean, est.std_error, est.reps, est.censored]


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
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
                 help="Master seed; identical seeds give identical output."),
]

def _with_options(options):
    def decorate(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return decorate


_with_global = _with_options(_global)
_with_seed = _with_options(_global + _seeded)
_ALPHA_GRID_HELP = "Alpha grid 0, s, 2s, ...: '0:s:max' or a list."


def _with_monte_carlo(section: str):
    """The seeded options plus --threads and the --reps of [section]: only
    the commands that simulate run lengths take these."""
    return _with_options(_global + _seeded + [
        click.option("--threads", type=int, default=1, show_default=True,
                     help="Worker processes for Monte Carlo replicates."),
        _flag(section, "reps", "Monte Carlo replicates.")])


@cli.command()
@_with_seed
@_flag("model", "epsilon", "Contamination ratio.")
@_flag("tune", "alpha_grid", _ALPHA_GRID_HELP)
@_flag("tune", "samples", "Monte Carlo samples.")
@_flag("tune", "method", "Expectation method.")
@_flag("tune", "gamma", "ARL target.")
@_flag("tune", "k", "Streams.")
@_flag("tune", "m", "Affected streams.")
def tune(config_path, seed, output, epsilon, alpha_grid, samples, method, gamma, k, m):
    """Tuning curve over the alpha grid plus a summary line.

    CSV columns: alpha, lambda, info, lambda_info, efficiency.  --seed and
    --samples are read by the monte_carlo method only.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg, epsilon=epsilon)
    get = partial(_setting, cfg, "tune")
    alpha_max, step = _alpha_grid(get("alpha_grid", alpha_grid))
    method = get("method", method)
    if method == "gauss_hermite_mixture":
        source = click.get_current_context().get_parameter_source
        given = [f"--{n}" for n in ("seed", "samples") if source(n) is not ParameterSource.DEFAULT]
        if given:
            raise ConfigError(f"{' and '.join(given)} not read by method {method!r}")
    qc = tuning.QuadratureConfig(method=method, n_samples=get("samples", samples), seed=seed)
    gamma, k, m = get("gamma", gamma), get("k", k), get("m", m)
    rows = tuning.tuning_grid(model.epsilon, model, alpha_max=alpha_max, step=step, qc=qc)
    best = tuning.alpha_oracle(rows)
    lam = best.lambda_
    d = tuning.d_opt(lam, k, m, gamma)
    b = tuning.b_gamma(lam, k, d, gamma)
    with _open_output(output) as writer:
        writer.writerow(["alpha", "lambda", "info", "lambda_info", "efficiency"])
        for r in rows:
            writer.writerow([r.alpha, r.lambda_, r.info, r.objective, r.efficiency])
    click.echo(f"alpha_oracle={best.alpha:.4g} lambda={lam:.6g} d_opt={d:.6g} "
               f"b_gamma={b:.6g} (K={k}, m={m}, gamma={gamma:g})", err=True)


@cli.command("breakdown")
@_with_global
@_flag("breakdown", "alpha_grid", _ALPHA_GRID_HELP)
@_flag("model", "theta0")
@_flag("model", "theta1")
@_flag("model", "sigma")
def breakdown_cmd(config_path, output, alpha_grid, theta0, theta1, sigma):
    """Breakdown-point curve: alpha, d_alpha, m_alpha, eps_star."""
    cfg = _load_config(config_path)
    model = _build_model(cfg, theta0=theta0, theta1=theta1, sigma=sigma)
    alpha_max, step = _alpha_grid(_setting(cfg, "breakdown", "alpha_grid", alpha_grid))
    reports = bkd.breakdown_grid(model.nominal, alpha_max=alpha_max, step=step)
    with _open_output(output) as writer:
        writer.writerow(["alpha", "d_alpha", "m_alpha", "eps_star"])
        for r in reports:
            writer.writerow([r.alpha, r.d_alpha, r.m_alpha, r.eps_star])
    best = bkd.alpha_opt(reports)
    click.echo(f"alpha_opt={best.alpha:.4g} eps_star={best.eps_star:.4g}", err=True)


@cli.command()
@_with_monte_carlo("calibrate")
@_flag("calibrate", "gamma")
@_flag("scheme", "alpha")
@_flag("scheme", "d")
@_flag("scheme", "fusion")
@_flag("model", "epsilon")
@_flag("scenario", "k")
def calibrate(config_path, seed, output, threads, reps, gamma, alpha, d, fusion, epsilon, k):
    """Smallest global threshold b whose simulated ARL reaches gamma.

    Replicates are advanced until their running maximum reaches a rising bar,
    resuming only those below it, and b is read off the paths; iterations
    counts the bars.  CSV columns: b, arl_mean, arl_se, reps, censored,
    iterations.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg, epsilon=epsilon)
    gamma = _setting(cfg, "calibrate", "gamma", gamma)
    reps = _setting(cfg, "calibrate", "reps", reps)
    K = _setting(cfg, "scenario", "k", k)
    scheme = _build_scheme(cfg, "scheme", model.nominal, alpha=alpha, d=d, b=1.0, fusion=fusion)
    result = calibrate_threshold(scheme, model, gamma,
                                 reps_schedule=(max(50, reps // 5), reps),
                                 seed=seed, K=K, threads=threads)
    with _open_output(output) as writer:
        writer.writerow(["b", "arl_mean", "arl_se", "reps", "censored", "iterations"])
        writer.writerow([result.b, *_estimate(result.arl), result.iterations])
    click.echo(f"calibrated b={result.b:.6g}  ARL={result.arl.mean:.1f} "
               f"(se {result.arl.std_error:.2f}, {result.iterations} bars)", err=True)


def _schemes_from_config(cfg, fam) -> list:
    """One scheme per [scheme] or [scheme:NAME] section, in section-name order."""
    sections = [s for s in cfg if s == "scheme" or s.startswith("scheme:")]
    return [_build_scheme(cfg, s, fam) for s in sorted(sections)]


@cli.command()
@_with_monte_carlo("simulate")
@_flag("simulate", "mode")
def simulate(config_path, seed, output, threads, reps, mode):
    """Delay tables or contamination robustness curves for configured schemes.

    CSV columns: scheme, parameter, mean, se, reps, censored, then
    delay_bound_ratio (delay_table) or log_arl, se_log (arl_vs_epsilon).
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    get = partial(_setting, cfg, "simulate")
    mode, reps, cap = get("mode", mode), get("reps", reps), get("cap")
    K = _setting(cfg, "scenario", "k")
    ChangeScenario.no_change(K)  # rejects k < 1 before the m grid can take the blame
    schemes = _schemes_from_config(cfg, model.nominal)
    if not schemes:
        raise ConfigError("simulate needs at least one [scheme] section")
    if mode == "delay_table":
        theta_post = _setting(cfg, "scenario", "theta_post")
        if theta_post is None:
            theta_post = model.nominal.theta1
        m_grid = get("m_grid")
        if "m_grid" not in cfg.get("simulate", {}):
            m_grid = [m for m in m_grid if m <= K]  # the default grid is clipped to k
        over = [str(m) for m in m_grid if m > K]
        if over or not m_grid:
            some = "not every" if len(over) < len(m_grid) else "no"
            raise ConfigError(f"[simulate] m_grid: {some} m is at most [scenario] k = {K}"
                              + (f"; above it: {', '.join(over)}" if over else ""))
        scenarios = tuple(ChangeScenario.immediate(K, m, th)
                          for th in get("theta_grid") or [theta_post] for m in m_grid)
        spec = experiments.ExperimentSpec(
            schemes=tuple(schemes), model_post=model, scenarios=scenarios,
            reps=reps, seed=seed, cap=cap, threads=threads)
        header = ["delay_bound_ratio"]
        rows = [[r.scheme, r.parameter, *_estimate(r.delay), r.delay_bound_ratio or ""]
                for r in experiments.run_delay_table(spec)]
    else:
        header = ["log_arl", "se_log"]
        rows = [[pt.scheme, pt.epsilon, *_estimate(pt.estimate), pt.log_arl, pt.se_log]
                for pt in experiments.arl_vs_epsilon_curve(
                    schemes, model, get("eps_grid"), reps, seed, K, cap, threads)]
    with _open_output(output) as writer:
        writer.writerow(["scheme", "parameter", "mean", "se", "reps", "censored", *header])
        writer.writerows(rows)


@cli.command()
@_with_global
@_flag("scheme", "alpha")
@_flag("scheme", "d")
@_flag("scheme", "b")
@_flag("scheme", "fusion")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="CSV stream; default: standard input.")
@_flag("monitor", "stop_on_alarm", "Stop after the first alarm.")
def monitor(config_path, output, alpha, d, b, fusion, input_path, stop_on_alarm):
    """Stream monitoring: one 'n,global_stat,alarmed' line per input row.

    Input rows carry K numeric columns; a non-numeric first row is treated
    as a header and skipped.  A non-numeric later row, or a nan or inf value,
    is a configuration error.
    """
    cfg = _load_config(config_path)
    model = _build_model(cfg)
    scheme = _build_scheme(cfg, "scheme", model.nominal, alpha=alpha, d=d, b=b, fusion=fusion)
    stop_on_alarm = _setting(cfg, "monitor", "stop_on_alarm", stop_on_alarm)
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
@_with_monte_carlo("casestudy")
@_flag("casestudy", "target_arl")
@_flag("casestudy", "p")
@_flag("casestudy", "pre_outlier")
@click.option("--pool-dir", type=click.Path(), default=None,
              help="Read profile pools from normal/fault1/fault2.csv here "
                   "instead of generating them.")
@click.option("--save-pool", "save_pool_dir", type=click.Path(), default=None,
              help="Write the generated pools as CSV to this directory.")
def casestudy(config_path, seed, output, threads, reps, target_arl, p, pre_outlier,
              pool_dir, save_pool_dir):
    """Profile-monitoring study at matched in-control run length.

    Uses the synthetic pool generator by default (or CSV pools via
    --pool-dir), calibrates each configured scheme on the contaminated
    in-control stream and reports detection delays.
    """
    cfg = _load_config(config_path)
    get = partial(_setting, cfg, "casestudy")
    run = dict(target_arl=get("target_arl", target_arl), p=get("p", p), reps=get("reps", reps),
               pre_outlier=get("pre_outlier", pre_outlier), cap=get("cap"))
    if pool_dir is not None:
        pool = profiles.load_pool(pool_dir)
    else:
        gen = profiles.ProfileGeneratorConfig(
            length=get("length"), noise_sd=get("noise_sd"),
            fault1_magnitude=get("fault1_magnitude"), fault2_magnitude=get("fault2_magnitude"))
        pool = profiles.synth_pool(gen, tuple(get("counts")), seed)
    if save_pool_dir is not None:
        profiles.save_pool(pool, save_pool_dir)
    fam = NominalFamily(theta0=0.0, theta1=1.0, sigma=1.0)
    schemes = _schemes_from_config(cfg, fam) or [
        LAlphaScheme(LocalParams(0.21, fam), FusionRule.soft(1.0, 1.5056), "robust21"),
        LAlphaScheme(LocalParams(0.51, fam), FusionRule.soft(1.0, 0.7235), "robust51"),
        LAlphaScheme(LocalParams(0.0, fam), FusionRule.soft(1.0, 3.9357), "cusum"),
    ]
    rows = profiles.case_study_run(pool, schemes, seed=seed, threads=threads, **run)
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
        click.echo(f"config error: {exc}", err=True)
        return 1
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 2
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
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
