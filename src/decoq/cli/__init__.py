"""Command line front end.

Subcommands:

    curve    decoherence measures on a time grid -> CSV + SVG
    tld      low-decoherence time against the idle-gate time -> JSON
    sweep    low-decoherence time across a parameter axis -> CSV + SVG
    verify   built-in cross-checks of the numerical machinery -> JSON

Each subcommand takes only the run settings it reads, as flags spelt in
full (see `decoq COMMAND --help`) and as keys of a flat key = value file
given by --config, and echoes only those into its output; a flag or key
it does not read is a usage error, reported under the subcommand's own
usage line.  A setting takes, lowest precedence first: the
built-in default, the subcommand's own default (curve looks at
t_max = 0.5, not 10), the file, then the flag.

Exit codes: 0 success, 1 usage or configuration error (including a bath
whose B2 is not finite in double precision, an s > 2 window whose first
crossing past t_rise is not proved and an output path that cannot be
written), 2 no threshold crossing on the window, 3 a verification or
consistency check failed (including a sweep with an error row or a
tau_ld that grows along its axis).
"""

import argparse
import math
import sys

from .. import __version__, _bind_on_first_use

# names bound as globals here on first lookup: main looks up only the command
# its parser read, so --version and -h load none of them, and the command
# modules take the rest from here after the command word, so a wrapper set on
# decoq.cli before main runs is what they call
_ON_FIRST_USE = {
    ".cli.commands": ("RunConfig", "build_config", "cmd_curve", "cmd_sweep", "cmd_tld",
                      "parse_config_file"),
    ".cli.checks": ("cmd_verify",),
    # no command calls phase_shift; it stays bound here, where the benchmark's tracer wraps it
    ".bath": ("dephasing_exponent", "phase_shift"),
    ".discrete": ("dephasing_exponent_modes", "discretize_bath"),
    ".evolution": ("low_decoherence_time", "max_decoherence"),
    ".states": ("bloch_supremum_scan", "deviation", "deviation_norm", "deviation_norm_closed_form",
                "evolve_ideal", "evolve_real", "evolve_real_influence_sum"),
    ".oracle": ("error_scaling", "evolve_exact"),
    ".svgplot": ("write_svg",),
}
__getattr__ = _bind_on_first_use(globals(), _ON_FIRST_USE)

# the initial states whose norms curve writes, in this order, as (theta,
# phi) on the Bloch sphere of the degeneracy-point eigenbasis; the pole
# (0, 0) has none, since its norm is D itself
PRESETS = {
    "line1": (math.pi / 3.0, 0.0),
    "line2": (math.pi / 2.0, 0.0),
}


# RunConfig's fields: field -> (default, flag or None, help).  A flag and a
# config-file key take the type of the default, and a subcommand's flags
# come in this order
_FIELDS = {
    "e_j": (51.8, "--ej", "Josephson energy (ueV)"),
    "temp_mk": (30.0, "--temp-mk", "temperature (mK)"),
    "eta": (1e-6, "--eta", "dimensionless Ohmic coupling"),
    "omega_c": (200.0, "--cutoff", "cutoff frequency omega_c (ueV)"),
    "s": (1.0, None, None),
    "t_max": (10.0, "--t-max", "time window (hbar/ueV)"),
    "n_samples": (400, "--samples", "number of grid samples"),
    "threshold": (1e-4, "--threshold", "decoherence threshold"),
    "seed": (1234, "--seed", "seed for randomized checks"),
}

_TLD_FIELDS = ("e_j", "temp_mk", "eta", "omega_c", "s", "t_max", "threshold")

# RunConfig fields each subcommand reads: they alone are its flags, its
# config-file keys and its config echo
_COMMAND_FIELDS = {
    "curve": ("e_j", "temp_mk", "eta", "omega_c", "s", "t_max", "n_samples"),
    "tld": _TLD_FIELDS,
    "sweep": _TLD_FIELDS,  # one tld report per axis value
    "verify": ("e_j", "seed"),  # every check runs on its own fixed bath
}

# defaults of one subcommand that differ from RunConfig's: curves look at a
# short window, reports keep the long one
_COMMAND_DEFAULTS = {"curve": {"t_max": 0.5}}

_AXIS_TO_FIELD = {"T": "temp_mk", "eta": "eta", "E_J": "e_j", "omega_c": "omega_c"}


def _axis_values(text: str) -> list[float]:
    """--values: two or more comma-separated numbers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r}") from None
    if len(values) < 2:
        raise argparse.ArgumentTypeError("sweep needs at least two axis values")
    return values


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1, keeping 2 and 3 for runtime outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# subcommand -> its own flags, as flag -> add_argument keywords; they follow
# --config, its fields' flags and --out, and cmd_<subcommand> runs it
_COMMANDS = {
    "curve": {
        "--log-y": {"action": "store_true"},
    },
    "tld": {},
    "sweep": {
        "--axis": {"required": True, "choices": sorted(_AXIS_TO_FIELD)},
        "--values": {"required": True, "type": _axis_values,
                     "help": "comma separated axis values"},
        "--log-y": {"action": "store_true"},
    },
    "verify": {
        "--corrupt": {"choices": ["b2"],
                      "help": "deliberately corrupt a quantity to demonstrate check sensitivity"},
    },
}


# the flags the subcommand parsers take; the root parser takes none of them
_SUBCOMMAND_FLAGS = frozenset(
    ["--config", "--out", *(flag for _, flag, _ in _FIELDS.values() if flag),
     *(flag for own in _COMMANDS.values() for flag in own)]
)


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand: the flags of the fields it reads, then its own."""
    parser = _Parser(prog=f"decoq {command}", allow_abbrev=False)
    parser.set_defaults(command=command)
    parser.add_argument("--config", help="flat key = value configuration file")
    for field, (default, flag, help_text) in _FIELDS.items():
        if flag and field in _COMMAND_FIELDS[command]:
            parser.add_argument(flag, type=type(default), dest=field, help=help_text)
    parser.add_argument("--out", help="output path")
    for flag, options in _COMMANDS[command].items():
        parser.add_argument(flag, **options)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The root parser reads the words up to the command, its parser the rest."""
    split = next((i for i, word in enumerate(argv) if not word.startswith("-")), len(argv))
    root = _Parser(prog="decoq", usage=f"%(prog)s [-h] [--version] {{{','.join(_COMMANDS)}}} ...",
                   description=__doc__, allow_abbrev=False,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    root.add_argument("--version", action="version", version=f"decoq {__version__}")
    root.add_argument("command", nargs="?", choices=_COMMANDS,
                      help="one of the subcommands above; decoq COMMAND --help lists its flags")
    # a subcommand flag before the command word would lend the root parser
    # its value as the command; -h and --version ahead of it still act
    flags = [word.partition("=")[0] for word in argv[:split]]
    misplaced = next((i for i, flag in enumerate(flags) if flag in _SUBCOMMAND_FLAGS), None)
    if misplaced is not None:
        root.parse_args(argv[:misplaced])
        root.error(f"{flags[misplaced]} goes after the command")
    command = root.parse_args(argv[:split + 1]).command
    if command is None:
        root.error("the following arguments are required: command")
    return build_parser(command).parse_args(argv[split + 1:])


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    cli = sys.modules[__name__]
    try:
        return getattr(cli, f"cmd_{args.command}")(cli.build_config(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
