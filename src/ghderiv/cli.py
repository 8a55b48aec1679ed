"""Command line front end.

Exit codes: 0 success, 1 malformed input, a failed verification run or a
stdout closed before the output was written, 2 solving requested over a
composite modulus.  No environment variables are consulted; an optional
config file (JSON, or TOML when the name ends in .toml) may set ``ring``
and ``out_dir`` defaults.  Every document is
written as exactly the text of ``json.dumps(doc, indent=2)``, by
``_dumps``, which encodes each distinct string of a document once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .ring import MAX_DIGITS, CompositeModulusUnsupported, NotAUnit, RingSpec, _Memo
from .algebra import algebra_to_doc, from_spec
from .linmap import MapTriple, map_from_doc, triple_from_doc, triple_to_doc
from . import identities
from .identities import IdentityKind
from . import solver
from .solver import Constraints
from . import catalog as catalog_mod

__all__ = ["main"]


class InputError(ValueError):
    pass


# ``solve --emit-system`` prints every row densely; larger systems are refused.
EMIT_SYSTEM_MAX_CELLS = 5_000_000
# Largest document ``check`` reads, in bytes (in characters from stdin):
# about twice the 32.3 MB of json.dumps(doc, indent=2) text that a dim-128
# triple document with an inline algebra takes.
MAX_DOC_BYTES = 64 * 2**20


def _object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object; InputError otherwise."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} is not a JSON object")
    return doc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        if p.suffix == ".toml":
            try:
                import tomllib
            except ModuleNotFoundError:
                import tomli as tomllib

            with open(p, "rb") as fh:
                return tomllib.load(fh)
        with open(p, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except Exception as exc:
        raise InputError(f"cannot parse config {path}: {exc}") from exc
    return _object(config, f"config {path}")


def _config_text(config: dict, key: str) -> str | None:
    """The config's ``key``, which must be a string when it is set."""
    value = config.get(key)
    if value is not None and not isinstance(value, str):
        raise InputError(f"config {key} must be a string, not {value!r}")
    return value


def _resolve_ring(flag_value: str | None, config: dict) -> RingSpec:
    name = flag_value or _config_text(config, "ring") or "q"
    return RingSpec.from_name(name)


def _resolve_algebra(name: str, n: int | None, ring: RingSpec):
    if name in ("tn", "mn"):
        if n is None:
            raise InputError(f"--algebra {name} needs --n")
        return from_spec(f"{name}{n}", ring)
    if n is not None:
        raise InputError(f"--n applies to --algebra tn or mn only, not {name}")
    return from_spec(name, ring)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read(MAX_DOC_BYTES + 1)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                # A file is measured before any of it is read, and read for
                # its size (a read for the whole budget would reserve a
                # buffer that large).  A pipe or device reports size 0, so
                # only the read bounds it, as it does stdin.
                size = os.fstat(fh.fileno()).st_size
                text = None if size > MAX_DOC_BYTES else fh.read((size or MAX_DOC_BYTES) + 1)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    if text is None or len(text) > MAX_DOC_BYTES:
        raise InputError(f"{path} is larger than the document budget of "
                         f"{MAX_DOC_BYTES} bytes ({MAX_DOC_BYTES >> 20} MiB)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # Python's limit on int-to-text conversion; its message names
        # neither the document nor the literal.
        raise InputError(f"{path} holds an integer literal of more than "
                         f"{MAX_DIGITS} digits") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to parse") from exc
    return _object(doc, path)


def _out_dir(flag_value: str | None, config: dict, default: str | None) -> Path | None:
    target = flag_value or _config_text(config, "out_dir") or default
    if target is None:
        return None
    p = Path(target)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {target}: {exc}") from exc
    return p


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, without its pure-Python encoder.

    Each distinct string is encoded once per document, and a list of
    strings (a row of scalars) is written with one join.  Any value that
    is not a str, int, float, bool, None, list, tuple or dict raises
    TypeError, as in ``json.dumps``; so does a key that is not a str
    (every document here has str keys).
    """
    enc = _Memo(encode_basestring_ascii).__getitem__
    out = []
    put = out.append

    def write(v, indent: str) -> None:
        # ``indent`` is a newline and the indentation of v's own line.
        if isinstance(v, str):
            put(enc(v))
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int.__repr__(v))
        elif isinstance(v, float):
            put(_float_text(v))
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = indent + "  "
            if all(map(isinstance, v, repeat(str))):
                put("[" + inner + ("," + inner).join(map(enc, v)) + indent + "]")
                return
            sep = "[" + inner
            for x in v:
                put(sep)
                write(x, inner)
                sep = "," + inner
            put(indent + "]")
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for k, x in v.items():
                put(sep + enc(k) + ": ")
                write(x, inner)
                sep = "," + inner
            put(indent + "}")
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    write(doc, "\n")
    return "".join(out)


def _emit(doc: dict) -> None:
    print(_dumps(doc))


def cmd_solve(args, config) -> int:
    ring = _resolve_ring(args.ring, config)
    alg = _resolve_algebra(args.algebra, args.n, ring)
    kind = IdentityKind.from_name(args.kind)
    f_zero_on = ()
    if args.f_zero_on:
        try:
            f_zero_on = tuple(int(x) for x in args.f_zero_on.split(","))
        except ValueError as exc:
            raise InputError(f"bad --f-zero-on value: {args.f_zero_on}") from exc
    cons = Constraints(
        force_g_eq_h=args.g_eq_h,
        force_f_zero=args.f_zero,
        f_zero_basis=f_zero_on,
    )
    system = solver.build_system(alg, kind, cons)
    cells = system.nrows * system.ncols
    if args.emit_system and cells > EMIT_SYSTEM_MAX_CELLS:
        raise InputError(
            f"--emit-system would print {system.nrows} x {system.ncols} = {cells} "
            f"entries, over the limit of {EMIT_SYSTEM_MAX_CELLS}"
        )
    space = solver.nullspace(system)
    doc = space.to_doc()
    if args.emit_system:
        doc["system"] = system.to_doc()
    _emit(doc)
    return 0


def cmd_check(args, config) -> int:
    ring = _resolve_ring(args.ring, config)
    kind = IdentityKind.from_name(args.kind)
    if (args.triple is None) == (args.map is None):
        raise InputError("check needs exactly one of --triple or --map")
    if args.triple is not None:
        doc = _read_doc(args.triple)
        try:
            t = triple_from_doc(doc, ring=ring)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad triple document: {exc}") from exc
    else:
        doc = _read_doc(args.map)
        try:
            m = map_from_doc(doc, ring=ring)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad map document: {exc}") from exc
        t = MapTriple(m, m, m)
    report = identities.check(kind, t)
    _emit(report.to_doc())
    return 0


def cmd_catalog(args, config) -> int:
    entries = sorted(catalog_mod.entries(), key=lambda e: e.id)
    if args.json:
        _emit(
            {
                "entries": [
                    {
                        "id": e.id,
                        "title": e.title,
                        "claim": e.claim,
                        "origin": e.origin,
                    }
                    for e in entries
                ]
            }
        )
    else:
        for e in entries:
            print(f"{e.id:42s} [{e.origin}] {e.title}")
    return 0


def cmd_verify_paper(args, config) -> int:
    out = _out_dir(args.out, config, default=None)
    report = catalog_mod.run_catalog(args.filter)
    if not report.results:
        raise InputError(f"no catalog entry matches filter {args.filter!r}")
    if args.json:
        _emit(report.to_doc())
    else:
        for r in report.results:
            line = f"[{r.status.upper():4s}] {r.id}: {r.title}"
            print(line)
            if r.status == "fail":
                print(f"       {r.detail}")
        c = report.counts()
        print(
            f"passed {c.get('pass', 0)}, failed {c.get('fail', 0)}, "
            f"notes {c.get('note', 0)}"
        )
    if out is not None:
        _write(out / "report.json", _dumps(report.to_doc()) + "\n")
        _write(out / "traceability.md", catalog_mod.traceability_table(report))
        print(f"wrote {out / 'report.json'} and {out / 'traceability.md'}")
    return 0 if report.ok else 1


def cmd_export(args, config) -> int:
    if not args.algebra and not args.cases:
        raise InputError("export needs --algebra or --cases")
    out = _out_dir(args.out, config, default=".")
    written = []
    if args.algebra:
        ring = _resolve_ring(args.ring, config)
        alg = _resolve_algebra(args.algebra, args.n, ring)
        safe = "".join(c if c.isalnum() else "-" for c in args.algebra)
        if args.n is not None:
            safe += str(args.n)
        path = out / f"algebra-{safe}-{ring.name}.json"
        _write(path, _dumps(algebra_to_doc(alg)) + "\n")
        written.append(path)
    if args.cases:
        for cid, t in catalog_mod.worked_cases().items():
            path = out / f"{cid}.json"
            _write(path, _dumps(triple_to_doc(t)) + "\n")
            written.append(path)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghderiv",
        description="Exact checkers and solvers for product-rule identities "
        "on finite dimensional algebras.",
    )
    parser.add_argument("--config", help="JSON or TOML file with ring/out_dir defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an identity on a built-in algebra")
    p.add_argument("--algebra", required=True,
                   help="tn | mn | quat | ring | poly:BASE:D | tensor:A:B")
    p.add_argument("--n", type=int, help="size for tn/mn")
    p.add_argument("--kind", required=True, help="identity kind name")
    p.add_argument("--ring", help="q (default) or z<m> with m prime")
    p.add_argument("--g-eq-h", action="store_true", help="tie the g and h blocks")
    p.add_argument("--f-zero", action="store_true", help="force f = 0")
    p.add_argument("--f-zero-on", metavar="I,J,...",
                   help="force f to vanish on these basis indices (0-based)")
    p.add_argument("--emit-system", action="store_true",
                   help="include the raw linear system in the output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="check a map or triple document")
    p.add_argument("--kind", required=True, help="identity kind name")
    p.add_argument("--triple", help="path to a triple JSON document, - for stdin")
    p.add_argument("--map", help="path to a single-map JSON document, - for stdin")
    p.add_argument("--ring", help="ring for documents that name their algebra by spec")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("catalog", help="list the built-in verification entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser(
        "verify-paper",
        help="replay the whole results catalog as a pass/fail suite",
    )
    p.add_argument("--filter", help="run only entries whose id contains this text")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="directory for report.json and traceability.md")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("export", help="write built-in algebras or case triples as JSON")
    p.add_argument("--algebra", help="algebra name, as for solve")
    p.add_argument("--n", type=int)
    p.add_argument("--ring")
    p.add_argument("--cases", action="store_true", help="export the worked cases")
    p.add_argument("--out", help="output directory (default .)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load_config(args.config)
        code = args.func(args, config)
        # Inside the try, so a reader that left early is handled below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, as ``head`` does: end quietly, with
        # stdout on /dev/null so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CompositeModulusUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NotAUnit, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
