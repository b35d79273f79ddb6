"""CLI surface: commands, exit codes, report shape, determinism."""

import json
import time

import pytest

from quadrep import cli, maps, numeric
from quadrep.cli import main
from quadrep.exact import Polynomial
from quadrep.maps import PolyMap, hopf_pair
from quadrep.numeric import NumericError
from quadrep.serialize import DocumentError, map_to_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_generate_and_verify_exact(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    code, report, _ = run(capsys, "generate", "pi_np1:3", "-o", path)
    assert code == 0
    assert report["order"] == 3
    assert report["domain_dim"] == 5 and report["codomain_dim"] == 4
    assert report["certificate"]["verdict"] == "pass"

    code, report, _ = run(capsys, "verify", path, "--mode", "exact")
    assert code == 0
    assert report["checks"][0]["verdict"] == "pass"


def test_generate_circle_winding(tmp_path, capsys):
    path = str(tmp_path / "w2.json")
    code, report, _ = run(capsys, "generate", "pi_n:1,2", "-o", path)
    assert code == 0
    code, report, _ = run(capsys, "invariants", path, "--check", "degree")
    assert code == 0
    assert report["checks"][0]["value"] == 2


def test_generate_rejects_served_target(tmp_path, capsys):
    code, report, err = run(capsys, "generate", "pi_np1:2", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "pi3_s2" in err


def test_verify_grid_mode(tmp_path, capsys):
    path = str(tmp_path / "w3.json")
    run(capsys, "generate", "pi_n:1,3", "-o", path)
    code, report, _ = run(capsys, "verify", path, "--mode", "grid")
    assert code == 0
    assert report["checks"][0]["method"] == "exact-evaluation"


def test_verify_sampled_mode(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    run(capsys, "generate", "pi_np1:3", "-o", path)
    code, report, _ = run(capsys, "verify", path, "--mode", "sampled", "--samples", "2000")
    assert code == 0
    check = report["checks"][0]
    assert check["value"] < check["tolerance"]


def test_verify_corrupted_document_fails(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    run(capsys, "generate", "pi_np1:3", "-o", path)
    doc = json.loads(open(path).read())
    doc["components"][0][0]["re"] = "9999"
    open(path, "w").write(json.dumps(doc))
    code, report, _ = run(capsys, "verify", path, "--mode", "exact")
    assert code == 3
    assert report["checks"][0]["verdict"] == "fail"
    assert report["checks"][0]["witness"]


def test_verify_malformed_document(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    open(path, "w").write("{not json")
    code, report, err = run(capsys, "verify", path, "--mode", "exact")
    assert code == 2 and report is None


def test_invariants_hemisphere_via_lineage(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    run(capsys, "generate", "pi_np1:3", "-o", path)
    code, report, _ = run(capsys, "invariants", path, "--check", "hemisphere", "--samples", "400")
    assert code == 0
    assert report["checks"][0]["verdict"] == "pass"


def test_invariants_hopf(tmp_path, capsys):
    path = str(tmp_path / "hopf.json")
    run(capsys, "generate", "pi3_s2:1", "-o", path)
    code, report, _ = run(capsys, "invariants", path, "--check", "hopf")
    assert code == 0
    assert abs(report["checks"][0]["value"]) == 1


def test_invariants_hopf_charges_batch_tables_before_it_allocates(tmp_path, capsys):
    # one exponent of 10**6: a full block of power tables is 4 * (10**6 + 1)
    # * 2048 coordinates (13 monomials take 2048-point blocks), refused
    # before any table is built
    path = str(tmp_path / "hopf.json")
    run(capsys, "generate", "pi3_s2:1", "-o", path)
    doc = json.loads(open(path).read())
    doc["components"][0][0]["exponents"] = [1000000, 0, 0, 0]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    t0 = time.perf_counter()
    code, report, err = run(capsys, "invariants", path, "--check", "hopf")
    assert code == 2 and report is None and "Traceback" not in err
    assert "batch power tables exceed the expansion budget" in err
    assert time.perf_counter() - t0 < 20


def test_invariants_homotopies(tmp_path, capsys):
    path = str(tmp_path / "hopf.json")
    run(capsys, "generate", "pi3_s2:1", "-o", path)
    code, report, _ = run(capsys, "invariants", path, "--check", "homotopies", "--samples", "1000")
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "retraction-homotopy-residual" in names
    assert "even-order-contraction-residual" in names  # order 2 is even


def test_invariants_dimension_guard(tmp_path, capsys):
    path = str(tmp_path / "w1.json")
    run(capsys, "generate", "pi_n:1,1", "-o", path)
    code, _, err = run(capsys, "invariants", path, "--check", "hopf")
    assert code == 2


def test_sphere_degree_on_a_given_grid(tmp_path, capsys):
    path = str(tmp_path / "d3.json")
    run(capsys, "generate", "pi_n:2,3", "-o", path)
    code, report, _ = run(capsys, "invariants", path, "--check", "degree", "--grid", "200x100")
    assert code == 0
    (check,) = report["checks"]
    assert check["name"] == "sphere-degree" and check["value"] == 3


@pytest.mark.parametrize(
    "argv",
    [["verify", "{doc}", "--mode", "sampled"], ["invariants", "{doc}", "--check", "homotopies"]],
    ids=["sampled", "homotopies"],
)
def test_one_variable_document_exits_2(tmp_path, capsys, argv):
    path = str(tmp_path / "one.json")
    doc = map_to_document(PolyMap.explicit([Polynomial.variable(1, 0)], "id(1)", order=1))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, report, err = run(capsys, *(a.format(doc=path) for a in argv))
    assert code == 2 and report is None
    assert err.startswith("quadrep: ") and "at least 2 variables" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "target, argv",
    [
        ("pi_n:4,2", ["verify", "--mode", "sampled"]),
        ("pi3_s2:1", ["invariants", "--check", "hopf"]),
        ("pi_n:2,2", ["invariants", "--check", "degree"]),
    ],
    ids=["sampled", "hopf", "degree"],
)
def test_coefficient_beyond_the_float_range_exits_2(tmp_path, capsys, target, argv):
    path = str(tmp_path / "big.json")
    run(capsys, "generate", target, "-o", path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["components"][0][0]["re"] = "1" + "0" * 400
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, report, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2 and report is None
    assert err.startswith("quadrep: ") and "float range (magnitude 1.79769e+308)" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sampled_scan_that_overflows_fails_with_a_strict_json_report(tmp_path, capsys):
    # a coefficient of 10**300 is a float, but its square is not
    path = str(tmp_path / "overflow.json")
    run(capsys, "generate", "pi_n:4,2", "-o", path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["components"][0][0]["re"] = "1" + "0" * 300
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    code = main(["verify", path, "--mode", "sampled"])
    out = capsys.readouterr()
    check = json.loads(out.out, parse_constant=refuse)["checks"][0]
    assert code == 3 and "Traceback" not in out.err
    assert check["verdict"] == "fail" and check["value"] in ("inf", "nan")


def test_export_byte_identity(tmp_path, capsys):
    src = str(tmp_path / "a.json")
    dst = str(tmp_path / "b.json")
    run(capsys, "generate", "pi_np2:2", "-o", src)
    code, _, _ = run(capsys, "export", src, "-o", dst)
    assert code == 0
    assert open(src, "rb").read() == open(dst, "rb").read()


def test_export_to_stdout_matches_the_file(tmp_path, capsys):
    src = str(tmp_path / "a.json")
    dst = tmp_path / "b.json"
    run(capsys, "generate", "pi_np1:3", "-o", src)
    assert main(["export", src, "-o", str(dst)]) == 0
    assert main(["export", src, "-o", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == dst.read_bytes()


def test_reports_deterministic(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    run(capsys, "generate", "pi_np1:3", "-o", path)
    _, r1, _ = run(capsys, "verify", path, "--mode", "sampled", "--seed", "5")
    _, r2, _ = run(capsys, "verify", path, "--mode", "sampled", "--seed", "5")
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2


def test_report_key_set_stable(tmp_path, capsys):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    run(capsys, "generate", "pi_np1:3", "-o", p1)
    run(capsys, "generate", "pi_np2:2", "-o", p2)
    _, r1, _ = run(capsys, "verify", p1, "--mode", "exact")
    _, r2, _ = run(capsys, "verify", p2, "--mode", "exact")
    assert set(r1.keys()) == set(r2.keys())
    assert set(r1["checks"][0].keys()) == set(r2["checks"][0].keys())


def test_sampled_verify_repeatable(tmp_path, capsys):
    path = str(tmp_path / "phi.json")
    run(capsys, "generate", "pi_np1:3", "-o", path)
    code, r1, _ = run(capsys, "verify", path, "--mode", "sampled", "--seed", "5")
    code2, r2, _ = run(capsys, "verify", path, "--mode", "sampled", "--seed", "5")
    assert code == 0 and code2 == 0
    assert r1["checks"][0]["value"] == r2["checks"][0]["value"]


def test_generate_unmaterializable_target(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, _, err = run(capsys, "generate", "pi_np3:3", "-o", str(path))
    assert code == 2
    assert "materialized" in err or "budget" in err
    assert not path.exists()


def test_materialize_budget_reaches_every_target(tmp_path, capsys):
    # pi_n:2,2 is a suspension; a budget of 0 leaves it without components
    path = tmp_path / "x.json"
    code, report, err = run(capsys, "generate", "pi_n:2,2", "-o", str(path), "--materialize-budget", "0")
    assert code == 2 and report is None
    assert "no materialized components" in err and not path.exists()


def test_materialize_budget_admits_exactly_the_cost(tmp_path, capsys, monkeypatch):
    # the budget one materialization of pi_np2:4's top suspension spends
    budgets = []

    class Recorded(maps._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(maps, "_Budget", Recorded)
        maps._materialize_suspension(maps.catalog("pi_np2:4").node, maps.DEFAULT_MATERIALIZE_BUDGET)
    cost = budgets[-1].spent
    path = tmp_path / "x.json"
    code, report, _ = run(capsys, "generate", "pi_np2:4", "-o", str(path), "--materialize-budget", str(cost))
    assert code == 0 and report["order"] == 11 and path.exists()
    path.unlink()
    code, report, err = run(capsys, "generate", "pi_np2:4", "-o", str(path), "--materialize-budget", str(cost - 1))
    assert code == 2 and report is None
    assert "no materialized components" in err and not path.exists()


@pytest.mark.parametrize("command", ["generate", "export"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, where):
    src = str(tmp_path / "src.json")
    run(capsys, "generate", "pi_n:1,2", "-o", src)
    out = str(tmp_path / "no" / "such" / "x.json") if where == "missing-directory" else str(tmp_path)
    argv = ["generate", "pi_n:1,2"] if command == "generate" else ["export", src]
    code, report, err = run(capsys, *argv, "-o", out)
    assert code == 2
    assert report is None
    assert err.startswith(f"quadrep: cannot write {out}")
    assert "Traceback" not in err


def test_verify_unaffordable_order_claim_exits_2(tmp_path, capsys):
    """A circle document claiming order 6000 through one x^6000 term: q^6000
    is beyond the expansion budget, so verify refuses within seconds rather
    than expanding it for half a minute."""
    path = tmp_path / "k.json"
    run(capsys, "generate", "pi_n:1,2", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["components"][0][0]["exponents"] = [6000, 0]
    doc.update(order=6000, label="")
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", str(path), "--mode", "exact")
    assert code == 2
    assert time.perf_counter() - start < 5
    assert err.startswith("quadrep: ")


def test_verify_grid_infeasible_on_large_document(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    run(capsys, "generate", "pi_np2:2", "-o", path)
    code, report, err = run(capsys, "verify", path, "--mode", "grid")
    assert code == 2
    assert "grid zero test" in err


def _first_term(doc):
    return doc["components"][0][0]


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: _first_term(d).update(re=0.1), id="float-coefficient"),
        pytest.param(lambda d: _first_term(d).update(im=True), id="bool-coefficient"),
        pytest.param(lambda d: _first_term(d)["exponents"].__setitem__(0, 4.7), id="float-exponent"),
        pytest.param(lambda d: _first_term(d)["exponents"].__setitem__(0, True), id="bool-exponent"),
        pytest.param(lambda d: d.update(order=True), id="bool-order"),
        pytest.param(lambda d: d.update(domain_dim=True), id="bool-domain-dim"),
        pytest.param(lambda d: d.update(codomain_dim=True), id="bool-codomain-dim"),
        pytest.param(lambda d: d.update(order=-1), id="negative-order"),
        pytest.param(lambda d: d.update(label=5), id="number-label"),
        pytest.param(lambda d: d.update(certificates=[1.5, True]), id="loose-certificates"),
        pytest.param(lambda d: _first_term(d).update(re="1e5000"), id="exponent-notation-coefficient"),
        # a mutation that returns bytes replaces the whole file
        pytest.param(lambda d: json.dumps(d).encode().replace(b'"hopf', b'"\xff'), id="non-utf8"),
        pytest.param(lambda d: b"[" * 200_000, id="deep-nesting"),
        pytest.param(lambda d: json.dumps(d).replace('"order": 2', '"order": ' + "9" * 5000).encode(), id="huge-integer"),
    ],
)
def test_verify_rejects_inexact_document_fields(tmp_path, capsys, mutate):
    f, _ = hopf_pair()
    doc = map_to_document(f)
    raw = mutate(doc)
    path = str(tmp_path / "doc.json")
    with open(path, "wb") as fh:
        fh.write(raw if raw is not None else json.dumps(doc).encode())
    code, report, err = run(capsys, "verify", path, "--mode", "exact")
    assert code == 2 and report is None
    assert err.startswith("quadrep:") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exact", "grid"])
@pytest.mark.parametrize(
    "field, value, start",
    [
        # the difference at the first refutation point has about 8000 digits
        pytest.param("re", "1" + "0" * 4000, "q(f(p)) - q(p)^2 = 1", id="long-coefficient"),
        # twice the claim has 4301 digits, one past the int-to-str limit
        pytest.param("order", int("9" * 4300), "deg q(f) <= 4 < 1999", id="long-order"),
    ],
)
def test_verify_formats_witnesses_past_the_digit_limit(tmp_path, capsys, mode, field, value, start):
    path = _with_order(tmp_path, capsys, "pi_n:1,2", 2)
    doc = json.loads(open(path).read())
    if field == "order":
        doc["order"] = value
    else:
        _first_term(doc)[field] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, report, err = run(capsys, "verify", path, "--mode", mode)
    assert code == 3 and "Traceback" not in err
    (check,) = report["checks"]
    assert check["verdict"] == "fail" and check["witness"].startswith(start)
    assert len(check["witness"]) > 4300


def _with_order(tmp_path, capsys, target, order):
    path = str(tmp_path / "claim.json")
    run(capsys, "generate", target, "-o", path)
    doc = json.loads(open(path).read())
    doc["order"] = order
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("mode", ["exact", "grid"])
@pytest.mark.parametrize("order", [7200, 10**9])
def test_verify_refutes_order_above_degree_bound(tmp_path, capsys, mode, order):
    path = _with_order(tmp_path, capsys, "pi_n:1,5", order)
    code, report, err = run(capsys, "verify", path, "--mode", mode)
    assert code == 3 and "Traceback" not in err
    (check,) = report["checks"]
    assert check["verdict"] == "fail" and check["method"] == "exact-evaluation"
    assert check["witness"] == f"deg q(f) <= 10 < {2 * order} = deg q^{order}"


@pytest.mark.parametrize(
    "mode, exponents, order, code, method",
    [
        # the refutation scan would build 2**e for every e <= 10**6; it is
        # skipped and the full expansion refutes the claim
        pytest.param("exact", {(0, 0): [1000000, 0]}, 2, 3, "full-expansion", id="refutation-scan"),
        # the grid fits its point budget, but not its power tables
        pytest.param("grid", {(0, 0): [99999, 0], (0, 1): [0, 0], (1, 0): [1, 0]}, 0, 2, None, id="grid"),
        # the float backend would allocate a 61 GiB power table
        pytest.param("sampled", {(0, 0): [1000000, 0]}, 2, 2, None, id="sampled"),
    ],
)
def test_verify_charges_exact_evaluation_before_it_allocates(tmp_path, capsys, mode, exponents, order, code, method):
    path = _with_order(tmp_path, capsys, "pi_n:1,2", order)
    doc = json.loads(open(path).read())
    for (comp, term), exps in exponents.items():
        doc["components"][comp][term]["exponents"] = exps
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    t0 = time.perf_counter()
    got, report, err = run(capsys, "verify", path, "--mode", mode)
    assert got == code and "Traceback" not in err
    assert time.perf_counter() - t0 < 20
    if method:
        assert report["checks"][0]["method"] == method and report["checks"][0]["verdict"] == "fail"
    else:
        assert "power tables exceed the expansion budget" in err


def test_verify_order_at_degree_bound_runs_refutation_scan(tmp_path, capsys):
    # pi_np1:3 has degree 4 and order 3: a claim of 4 is not ruled out by degree
    path = _with_order(tmp_path, capsys, "pi_np1:3", 4)
    code, report, _ = run(capsys, "verify", path, "--mode", "exact")
    assert code == 3
    assert report["checks"][0]["witness"].startswith("q(f(p)) - q(p)^4 = ")


def test_lineage_verify_cites_the_rebuilt_certificate(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "lineage.json")
    run(capsys, "generate", "pi3_s2:7", "-o", path)
    calls = {"certify_order": [], "_expansion_cert": []}

    def counted(name):
        real = getattr(maps, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return real(*args, **kwargs)

        return wrapper

    certify = counted("certify_order")
    monkeypatch.setattr(maps, "certify_order", certify)
    monkeypatch.setattr(cli, "certify_order", certify)
    monkeypatch.setattr(maps, "_expansion_cert", counted("_expansion_cert"))
    code, report, _ = run(capsys, "verify", path, "--mode", "exact")
    assert code == 0
    assert report["checks"][0]["method"] == "factored-expansion"
    # only the document is verified; the rebuild is proved by its builders and
    # not re-proved
    assert len(calls["certify_order"]) == 1
    # the document (infeasible to expand), then the builders' proofs of the
    # Hopf pair (2), circle pair (2), suspension and composition
    assert len(calls["_expansion_cert"]) == 7


def _relabelled(tmp_path, capsys, target: str, label: str) -> str:
    path = tmp_path / "relabelled.json"
    run(capsys, "generate", target, "-o", str(path))
    doc = json.loads(path.read_text())
    doc["label"] = label
    path.write_text(json.dumps(doc))
    return str(path)


def _unmaterialized_rebuild_exits_2(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert "'pi_np3:2'" in err and "not materialized at the default budget" in err
    assert "do not match" not in err and "Traceback" not in err


def test_hemisphere_lineage_without_rebuilt_components_exits_2(tmp_path, capsys):
    # pi_np3:2 is structural at the default budget: there is nothing to compare
    path = _relabelled(tmp_path, capsys, "pi_n:1,5", "pi_np3:2 := x")
    _unmaterialized_rebuild_exits_2(capsys, ["invariants", path, "--check", "hemisphere"])


def test_exact_lineage_without_rebuilt_components_exits_2(tmp_path, capsys, monkeypatch):
    path = _relabelled(tmp_path, capsys, "pi_n:1,5", "pi_np3:2 := x")

    def infeasible(*args, **kwargs):
        raise maps.InfeasibleError("too large to expand")

    monkeypatch.setattr(cli, "certify_order", infeasible)
    _unmaterialized_rebuild_exits_2(capsys, ["verify", path, "--mode", "exact"])


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["invariants", "{doc}", "--check", "degree", "--grid=-4x3"], id="negative-grid"),
        pytest.param(["invariants", "{doc}", "--check", "degree", "--grid", "0x0"], id="zero-grid"),
        pytest.param(["verify", "{doc}", "--mode", "sampled", "--samples", "0"], id="zero-samples"),
        pytest.param(["invariants", "{doc}", "--check", "hemisphere", "--samples", "0"], id="zero-hemisphere-samples"),
        pytest.param(["verify", "{doc}", "--mode", "sampled", "--samples", "-5"], id="negative-samples"),
        pytest.param(["verify", "{doc}", "--mode", "sampled", "--seed", "-1"], id="negative-seed"),
        pytest.param(["generate", "pi_n:2,2", "-o", "{doc}", "--materialize-budget", "-1"], id="negative-budget"),
    ],
)
def test_out_of_range_counts_rejected(tmp_path, capsys, argv):
    path = str(tmp_path / "d3.json")
    run(capsys, "generate", "pi_n:2,3", "-o", path)
    with pytest.raises(SystemExit) as exc:
        main([a.format(doc=path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize("option", ["--seed", "--samples"])
@pytest.mark.parametrize("command", ["generate", "export"])
def test_sampling_options_only_where_read(tmp_path, capsys, command, option):
    path = str(tmp_path / "d.json")
    run(capsys, "generate", "pi_n:1,2", "-o", path)
    argv = ["generate", "pi_n:1,2"] if command == "generate" else ["export", path]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-o", str(tmp_path / "out.json"), option, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option} 1" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (DocumentError, 2),
        (maps.CatalogError, 2),
        (maps.InfeasibleError, 2),
        (maps.DimensionMismatch, 2),
        (maps.PreconditionError, 2),
        (NumericError, 3),
        (maps.MapError, 3),
    ],
)
def test_exit_code_table(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "catalog", fail)
    got, report, err = run(capsys, "generate", "pi_n:1,2", "-o", str(tmp_path / "x.json"))
    assert got == code and report is None and err == "quadrep: boom\n"


def test_consecutive_commands_share_no_parsed_state(tmp_path, capsys):
    """``main`` parses with one parser per process; no option or default of
    one call may reach the next."""
    path = str(tmp_path / "d.json")
    code, _, err = run(capsys, "generate", "pi_n:2,2", "-o", path, "--materialize-budget", "0")
    assert code == 2 and "Traceback" not in err
    assert run(capsys, "generate", "pi_n:2,2", "-o", path)[0] == 0  # the default budget again
    code, report, _ = run(capsys, "verify", path, "--mode", "sampled", "--seed", "7", "--samples", "20")
    assert code == 0 and report["seed"] == 7 and report["checks"][0]["samples"] == 20
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--mode", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, report, _ = run(capsys, "invariants", path, "--check", "homotopies", "--seed", "3")
    assert code == 0 and report["check"] == "homotopies" and report["seed"] == 3 and "mode" not in report
    code, report, _ = run(capsys, "verify", path, "--mode", "sampled")
    assert code == 0 and report["seed"] == 0 and report["checks"][0]["samples"] == 10_000
    code, report, _ = run(capsys, "verify", path)
    assert code == 0 and report["mode"] == "exact" and "check" not in report
    assert report["checks"][0]["method"] == "full-expansion"
    assert cli._parser() is cli._parser()


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the point count was refused")


@pytest.mark.parametrize(
    "target, argv",
    [
        ("pi_np1:3", ["verify", "--mode", "sampled", "--samples", "1000000000000000"]),
        ("pi_np1:3", ["invariants", "--check", "hemisphere", "--samples", "1000000000000000"]),
        ("pi_n:2,3", ["invariants", "--check", "degree", "--grid", "1000000000x1000000000"]),
    ],
    ids=["sampled", "hemisphere", "degree-grid"],
)
def test_point_counts_beyond_the_budget_exit_2_before_any_array(tmp_path, capsys, monkeypatch, target, argv):
    # points times coordinates are charged against the expansion budget
    # before a sample or grid array is formed: numpy is out of reach
    path = str(tmp_path / "doc.json")
    run(capsys, "generate", target, "-o", path)
    monkeypatch.setattr(numeric, "np", _NoArrays())
    code, report, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2 and report is None and "Traceback" not in err
    assert err.startswith("quadrep: ") and "exceed the expansion budget 5000000" in err
