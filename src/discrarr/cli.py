"""Command-line front end.

Every run prints a one-line config echo (rerunning with the echoed
arguments reproduces the output bit for bit), a human-readable block, and
a one-line JSON document after a ``JSON:`` marker.  With --json only the
echo and the JSON line are printed.  Exit codes: 0 computed, 1 negative
verdict on a yes/no question, 2 usage or parse error, 3 budget exhausted.
"""

import argparse
import json
import sys

from .arrangement import (Arrangement, RetryBudgetExceeded, circuits,
                          load_arrangement, random_generic, save_arrangement)
from .discriminantal import intersection_rank, load_translation
from .linalg import PrimeField
from .presentations import (Presentation, SearchBudgetExceeded, check_bba,
                            degenerate, expected_rank, format_family,
                            parse_family)
from .svg import render_svg
from .varieties import (audit_arrangement, candidate_presentations,
                        eight_line_report, family_by_name, field_name,
                        membership, solve_on_variety)

FAMILY_SHORTCUTS = ("W6", "W8", "W10", "Wd8_4", "L8", "DW10")


class _CliError(Exception):
    def __init__(self, msg, code=2):
        super().__init__(msg)
        self.code = code


def _resolve_family(text: str, n: int, k: int) -> Presentation:
    try:
        return family_by_name(text).pres.with_ground(n)
    except KeyError:
        pass
    return parse_family(text, n, k)


def _to_field(a: Arrangement, mode: str) -> Arrangement:
    if mode == "Q":
        return a
    if mode.startswith("Fp:"):
        fp = PrimeField(int(mode[3:]))
        return Arrangement(a.k, tuple(tuple(fp(x) for x in v) for v in a.normals))
    raise _CliError(f"bad --field {mode!r}; use Q or Fp:<prime>")


def _load_input(path, field):
    if path is None:
        raise _CliError("--input is required for this subcommand")
    try:
        a = load_arrangement(path)
    except OSError as e:
        raise _CliError(str(e))
    except json.JSONDecodeError as e:
        raise _CliError(f"parse error in {path} at byte offset {e.pos}: {e.msg}")
    except (KeyError, TypeError) as e:
        raise _CliError(f"malformed arrangement file {path}: missing {e}")
    except (ZeroDivisionError, ValueError) as e:
        raise _CliError(f"bad entry in {path}: {e}")
    try:
        return _to_field(a, field)
    except ZeroDivisionError as e:
        raise _CliError(f"bad entry in {path} for --field {field}: {e}")


def cmd_circuits(args, out):
    a = _load_input(args.input, args.field)
    cs = sorted(sorted(c) for c in circuits(a))
    out.human(f"{len(cs)} circuit(s):")
    for c in cs:
        out.human("  " + " ".join(str(i) for i in c))
    out.json({"command": "circuits", "field": field_name(a),
              "circuits": cs})
    return 0


def cmd_rank(args, out):
    a = _load_input(args.input, args.field)
    if args.family is None:
        raise _CliError("--family is required")
    p = _resolve_family(args.family, a.n, a.k)
    r = intersection_rank(a, p)
    out.human(f"rank {r}")
    out.json({"command": "rank", "field": field_name(a),
              "family": [sorted(s) for s in p.canonical()], "rank": r})
    return 0


def cmd_bba(args, out):
    if args.family is None:
        raise _CliError("--family is required")
    n = args.n
    if n is None:
        raise _CliError("--n is required when no input file fixes the ground set")
    p = _resolve_family(args.family, n, args.k)
    verdict = check_bba(p)
    out.human(f"bba: {'ok' if verdict.ok else 'violated'}")
    witness = None
    if not verdict.ok:
        witness = sorted(sorted(s) for s in verdict.witness)
        out.human("  violating subfamily: " +
                  "; ".join(" ".join(map(str, s)) for s in witness))
    out.json({"command": "bba", "ok": verdict.ok, "witness": witness,
              "family": [list(s) for s in p.canonical()]})
    return 0 if verdict.ok else 1


def cmd_membership(args, out):
    a = _load_input(args.input, args.field)
    if args.family is None:
        raise _CliError("--family is required")
    p = _resolve_family(args.family, a.n, a.k)
    v = membership(a, p, args.r)
    out.human(f"member: {'true' if v.member else 'false'} "
              f"(rank certificate {v.rank_certificate}, r={v.r}, field {v.field})")
    out.json({"command": "membership", "member": v.member,
              "rank": v.rank_certificate, "r": v.r, "field": v.field,
              "family": [list(s) for s in p.canonical()]})
    return 0 if v.member else 1


def cmd_classify(args, out):
    n = args.n if args.n is not None else 8
    nprime = args.nprime_max if args.nprime_max is not None else n
    cands = candidate_presentations(n, args.k, nprime)
    out.human(f"{len(cands)} orbit class(es) on up to {nprime} of {n} indices:")
    for c in cands:
        out.human(f"  {format_family(c)}   nu={expected_rank(c)}")
    out.json({"command": "classify", "n": n, "nprime_max": nprime,
              "classes": [{"family": [list(s) for s in c.canonical()],
                           "nu": expected_rank(c)} for c in cands]})
    return 0


def cmd_audit(args, out):
    a = _load_input(args.input, args.field)
    if args.nprime_max is None:
        raise _CliError("--nprime-max is required")
    if a.k != 2 or a.n > 9:
        raise _CliError(f"audit needs at most 9 lines in the plane (k = 2), "
                        f"got n = {a.n}, k = {a.k}")
    rep = audit_arrangement(a, args.nprime_max)
    out.human(f"{len(rep.hits)} hit(s) on up to {rep.nprime_max} indices, "
              f"field {rep.field}:")
    for h in rep.hits:
        out.human(f"  {h.family}  labels {' '.join(map(str, h.labels))}  "
                  f"rank {h.rank} <= r={h.r}")
    out.human(rep.note)
    out.json({"command": "audit", **rep.to_json_dict()})
    return 0


def cmd_scan8(args, out):
    a = _load_input(args.input, args.field)
    if a.k != 2 or a.n != 8:
        raise _CliError(f"scan8 needs 8 lines in the plane (k = 2), "
                        f"got n = {a.n}, k = {a.k}")
    rep = eight_line_report(a)
    out.human(f"{len(rep.hits)} hit(s) in {rep.instances_scanned} instances, "
              f"field {rep.field}:")
    for h in rep.hits:
        out.human(f"  {h.family}  labels {' '.join(map(str, h.labels))}  "
                  f"rank {h.rank} <= r={h.r}")
    out.json({"command": "scan8", **rep.to_json_dict()})
    return 0


def cmd_degenerate(args, out):
    if args.family is None or args.frm is None or args.to is None:
        raise _CliError("--family, --from and --to are required")
    p = parse_family(args.family, args.frm, args.k)
    res, gamma = degenerate(p, args.frm, args.to)
    out.human(f"{format_family(res)}  gamma={gamma}")
    out.json({"command": "degenerate", "family": [list(s) for s in res.canonical()],
              "text": format_family(res), "gamma": gamma})
    return 0


def cmd_sample(args, out):
    extra = {} if args.budget is None else {"budget": args.budget}
    if args.family is not None:
        try:
            family = family_by_name(args.family)
        except KeyError:
            raise _CliError(f"unknown family {args.family!r} for an on-variety "
                            f"sample; use {', '.join(FAMILY_SHORTCUTS)}, W<m> or L<m>")
        a = solve_on_variety(family, seed=args.seed, height=args.height,
                             **extra)
        kind = f"on-variety {args.family}"
    else:
        if args.n is None:
            raise _CliError("--n is required (or --family for an on-variety sample)")
        a = random_generic(args.n, args.k, seed=args.seed, height=args.height,
                           **extra)
        kind = "generic"
    out.human(f"sampled {kind} arrangement: n={a.n} k={a.k}")
    d = a.to_json_dict()
    if args.output:
        save_arrangement(a, args.output)
        out.artifact_written = True
        out.human(f"written to {args.output}")
    out.json({"command": "sample", "kind": kind, "seed": args.seed,
              "arrangement": d})
    return 0


def cmd_render(args, out):
    a = _load_input(args.input, args.field)
    if field_name(a) != "Q":
        raise _CliError(f"render draws real coordinates and needs --field Q, "
                        f"not {args.field}")
    if a.k != 2:
        raise _CliError("render needs a plane arrangement (k = 2)")
    t = None
    if args.translation:
        try:
            t = load_translation(args.translation)
        except OSError as e:
            raise _CliError(str(e))
        except json.JSONDecodeError as e:
            raise _CliError(
                f"parse error in {args.translation} at byte offset {e.pos}: {e.msg}")
        except (KeyError, TypeError, ZeroDivisionError, ValueError) as e:
            raise _CliError(f"malformed translation file {args.translation}: {e!r}")
    try:
        doc = render_svg(a, t)
    except OverflowError as e:
        raise _CliError(f"render: coordinates too large to draw ({e})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
        out.artifact_written = True
        out.human(f"svg written to {args.output} ({len(doc)} bytes)")
    else:
        out.human(doc)
    out.json({"command": "render", "bytes": len(doc),
              "output": args.output})
    return 0


class _Output:
    def __init__(self, json_only, path):
        self.json_only = json_only
        self.path = path
        self.doc = None
        self.artifact_written = False  # subcommand used --output itself

    def human(self, line):
        if not self.json_only:
            print(line)

    def json(self, doc):
        self.doc = doc

    def flush(self, cfg_echo):
        if self.doc is None:
            return
        self.doc = {"config": cfg_echo, **self.doc}
        line = json.dumps(self.doc, sort_keys=True)
        if self.path and not self.artifact_written:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(line + "\n")
        print(f"JSON: {line}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="discrarr",
        description="exact computations on discriminantal arrangements")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--input", help="arrangement JSON file")
        p.add_argument("--output", help="write the JSON report (or SVG) here")
        p.add_argument("--family", help="family shortcut (W6, W8, Wd8_4, L8, DW10) "
                                        "or index groups like 123,156,246,345")
        p.add_argument("--r", type=int, help="explicit rank bound")
        p.add_argument("--from", dest="frm", type=int, help="index to merge away")
        p.add_argument("--to", type=int, help="index to merge into")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--field", default="Q", help="Q (default) or Fp:<prime>")
        p.add_argument("--budget", type=int, help="search/retry budget")
        p.add_argument("--nprime-max", dest="nprime_max", type=int)
        p.add_argument("--json", action="store_true", help="machine output only")
        p.add_argument("--n", type=int, help="ground-set size")
        p.add_argument("--k", type=int, default=2, help="ambient rank (default 2)")
        p.add_argument("--height", type=int, default=9, help="sampling entry bound")
        p.add_argument("--translation", help="translation JSON file (render)")

    for name, fn in (("circuits", cmd_circuits), ("rank", cmd_rank),
                     ("bba", cmd_bba), ("membership", cmd_membership),
                     ("classify", cmd_classify), ("audit", cmd_audit),
                     ("scan8", cmd_scan8),
                     ("degenerate", cmd_degenerate),
                     ("sample", cmd_sample), ("render", cmd_render)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = _Output(args.json, args.output)
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func",) and v is not None and v is not False}
    echo = f"# discrarr config: {json.dumps(cfg, sort_keys=True)}"
    print(echo)
    try:
        code = args.func(args, out)
        out.flush(cfg)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (SearchBudgetExceeded, RetryBudgetExceeded) as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # inputs raise _CliError; this is --output
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
