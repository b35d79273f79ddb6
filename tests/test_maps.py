"""Map algebra: pairings, order certification, suspension, composition, catalog."""

import dataclasses
import inspect
import time

import numpy as np
import pytest

from quadrep import maps
from quadrep.coefficients import suspension_triple
from quadrep.exact import GaussianRational, Polynomial, sum_of_products
from quadrep.maps import (
    CatalogError,
    Certificate,
    CompositionNode,
    DimensionMismatch,
    InfeasibleError,
    PolyMap,
    PreconditionError,
    SuspensionNode,
    bilinear_pairing,
    blend_homotopy,
    catalog,
    certify_order,
    circle_pair,
    compose_maps,
    constant_map,
    hopf_pair,
    lineage_node,
    quadratic_form,
    suspend,
)


def identity_map(m):
    comps = [Polynomial.variable(m, i) for i in range(m)]
    return maps._certified(PolyMap.explicit(comps, f"id({m})", order=1), "identity")


def corrupt(pmap, comp_idx=0, delta=1):
    """Copy of an explicit map with one coefficient bumped by delta."""
    comps = list(pmap.components)
    target = comps[comp_idx]
    mono = next(iter(target.terms))
    terms = dict(target.terms)
    terms[mono] = terms[mono] + GaussianRational(delta)
    comps[comp_idx] = Polynomial(target.nvars, terms)
    return PolyMap.explicit(comps, f"corrupt({pmap.label})", order=None)


# ------------------------------------------------------------------- q and b


def test_quadratic_form_values():
    assert quadratic_form(1) == Polynomial.variable(1, 0).square()
    q4 = quadratic_form(4)
    assert q4.eval_complex([1, 0, 0, 0]) == 1
    assert quadratic_form(2).eval_complex([1, 1j]) == 0


def test_pairing_identity_map():
    ident = identity_map(2)
    assert bilinear_pairing(ident, ident) == quadratic_form(2)


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bilinear_pairing(identity_map(2), identity_map(3))


def test_hopf_pair_orthogonal_and_order2():
    f, g = hopf_pair()
    assert bilinear_pairing(f, g).is_zero()
    for pm in (f, g):
        cert = certify_order(pm, 2, method="expansion")
        assert cert.verdict and cert.method == "full-expansion"


def test_hopf_values_from_printed_formula():
    f, _ = hopf_pair()
    assert [complex(v) for v in f.eval_exact([1, 0, 0, 0])] == [1, 0, 0]
    assert [complex(v) for v in f.eval_exact([0, 0, 1, 0])] == [-1, 0, 0]


def test_hopf_wrong_order_fails_with_witness():
    f, _ = hopf_pair()
    cert = certify_order(f, 3)
    assert not cert.verdict
    # order 3 exceeds the degree bound 2, so q^3 is never formed
    assert cert.method == "exact-evaluation"
    assert cert.detail == {"stage": "degree bound"}
    assert cert.witness == "deg q(f) <= 4 < 6 = deg q^3"


def test_circle_pair_small_cases():
    f1, g1 = circle_pair(1)
    assert f1.components == (Polynomial.variable(2, 0), Polynomial.variable(2, 1))
    assert g1.components == (-Polynomial.variable(2, 1), Polynomial.variable(2, 0))
    f2, _ = circle_pair(2)
    z1, z2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert f2.components == (z1.square() - z2.square(), 2 * (z1 * z2))
    fm1, _ = circle_pair(-1)
    assert fm1.components == (z1, -z2)


def test_circle_pair_orthogonal_certified():
    for d in (-3, -2, -1, 1, 2, 3):
        f, g = circle_pair(d)
        assert f.order == abs(d) and g.order == abs(d)
        assert bilinear_pairing(f, g).is_zero()
        assert f.certificate.verdict and g.certificate.verdict


def test_circle_pair_rejects_zero():
    with pytest.raises(ValueError):
        circle_pair(0)


def test_constant_map_order0():
    c = constant_map(3, 3)
    assert c.order == 0 and c.certificate.verdict
    assert certify_order(c, 0).verdict


# ------------------------------------------------------------ certification


def test_certify_identity_map():
    assert certify_order(identity_map(4), 1).verdict


def test_certify_grid_matches_expansion():
    f, _ = circle_pair(2)
    grid_cert = certify_order(f, 2, method="grid")
    assert grid_cert.verdict and grid_cert.method == "exact-evaluation"
    assert grid_cert.detail["grid_points"] > 0


def test_grid_budget_guard():
    big = catalog("pi_np2:2")  # per-variable degree 8 in 5 variables
    with pytest.raises(InfeasibleError):
        certify_order(big, 6, method="grid", grid_budget=1000)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_form_power_cost_counts_the_products_of_pow(monkeypatch, m):
    from quadrep import exact

    counted = []
    mul, square = exact._mul_poly, exact._square_poly
    monkeypatch.setattr(exact, "_mul_poly", lambda a, b: counted.append(len(a) * len(b)) or mul(a, b))
    monkeypatch.setattr(exact, "_square_poly", lambda p: counted.append(len(p) * (len(p) + 1) // 2) or square(p))
    q = quadratic_form(m)
    for k in range(0, 40 if m < 5 else 12):
        counted.clear()
        q**k
        assert maps._form_power_cost(m, k) == sum(counted), k


def test_expansion_refuses_unaffordable_q_power():
    """q^k is checked against the budget before it is formed: a claimed
    order of 6000 on a circle map would take half a minute to expand."""
    f, _ = circle_pair(2)
    big = Polynomial(2, {(6000, 0): 1, (0, 2): -1})
    doc_map = PolyMap.explicit([big, f.components[1]], "", order=6000)
    start = time.perf_counter()
    with pytest.raises(InfeasibleError):
        certify_order(doc_map, 6000, method="expansion")
    with pytest.raises(InfeasibleError):
        certify_order(doc_map, 6000)
    assert time.perf_counter() - start < 5
    # an affordable power is still formed and the certificate is unchanged
    assert certify_order(f, 2).detail == {"difference_terms": 0, "expanded_products": 4}


def test_corrupted_map_fails_fast_with_witness():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    for pm in (f, phi):
        bad = corrupt(pm)
        cert = certify_order(bad, pm.order)
        assert not cert.verdict
        assert cert.witness is not None


def test_certify_order_zero_of_nonconstant_fails():
    f, _ = hopf_pair()
    assert not certify_order(f, 0).verdict


# -------------------------------------------------------------- composition


def test_compose_with_identity():
    f, _ = hopf_pair()
    fi = compose_maps(f, identity_map(4))
    assert fi.components == f.components
    assert fi.order == 2


def test_compose_dimension_error():
    f, _ = hopf_pair()
    with pytest.raises(DimensionMismatch):
        compose_maps(f, identity_map(3))


def test_order_multiplicativity():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    f1 = compose_maps(f, phi)
    assert f1.order == 6
    assert certify_order(f1, 6, method="expansion").verdict
    g1 = compose_maps(g, phi)
    assert certify_order(g1, 6, method="expansion").verdict


def test_orthogonality_propagates_through_composition():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    f1, g1 = compose_maps(f, phi), compose_maps(g, phi)
    # exact expansion of sum f1_j g1_j
    assert bilinear_pairing(f1, g1).is_zero()


# --------------------------------------------------------------- suspension


def test_suspend_hopf_dimensions_and_order():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    assert (phi.m, phi.r) == (5, 4)
    assert phi.order == 3
    assert phi.certificate.verdict


def test_suspend_order_vs_degree_divergence():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    assert max(c.degree() for c in phi.components) == 4
    assert phi.order == 3


def test_suspend_circle_identity_order1():
    f, g = circle_pair(1)
    sus = suspend(f, g, 1)
    assert (sus.m, sus.r) == (3, 3)
    assert sus.order == 1
    assert isinstance(sus.node, SuspensionNode)
    assert sus.node.triple.order == 1


def test_suspend_preconditions():
    f, g = hopf_pair()
    cf, cg = circle_pair(2)
    with pytest.raises(DimensionMismatch):
        suspend(f, cg, 1)
    with pytest.raises(PreconditionError):
        suspend(f, f, 1)  # b(f, f) = q^2 is not zero
    uncert = PolyMap.explicit(list(f.components), "raw", order=None)
    with pytest.raises(PreconditionError):
        suspend(uncert, g, 1)
    f3, _ = circle_pair(3)
    with pytest.raises(PreconditionError):
        suspend(cf, PolyMap.explicit(f3.components, "w3", order=3), 1)


@pytest.mark.parametrize("d", [-2, 1, 3])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_suspension_order_law_circle(d, ell):
    f, g = circle_pair(d)
    sus = suspend(f, g, ell)
    assert sus.order == 2 * abs(d) - 1
    assert sus.certificate.verdict


def test_suspension_order_law_hopf():
    f, g = hopf_pair()
    for ell in (1, 2, 3):
        sus = suspend(f, g, ell)
        assert sus.order == 3 and sus.certificate.verdict


@pytest.mark.parametrize("pair", [hopf_pair, lambda: circle_pair(1), lambda: circle_pair(-3)], ids=["hopf", "circle-1", "circle--3"])
def test_negated_scale_fails_its_certificate(pair):
    # a negated u-coefficient keeps the order identity (u is squared), but
    # the triple's positivity witness reads the same u and refutes it
    f, g = pair()
    phi = suspend(f, g, 1)
    flipped = dataclasses.replace(phi.node.triple, u_coeff=-phi.node.triple.u_coeff)
    bad = PolyMap(phi.m, phi.r, node=SuspensionNode(f, g, flipped, 1), label="neg-scale", order=phi.order)
    cert = certify_order(bad, phi.order)
    assert not cert.verdict and cert.detail["failed"] == "coefficient triple"
    assert cert.witness == "u(1, t) coefficient positivity witness failed"


# ------------------------------------------------------------------ catalog


@pytest.mark.parametrize(
    "target,m,r,order",
    [
        ("pi_n:1,2", 2, 2, 2),
        ("pi_n:2,3", 3, 3, 5),
        ("pi_n:3,2", 4, 4, 3),
        ("pi_n:2,0", 3, 3, 0),
        ("pi_np1:3", 5, 4, 3),
        ("pi_np1:4", 6, 5, 3),
        ("pi_np2:2", 5, 3, 6),
        ("pi_np2:3", 6, 4, 11),
        ("pi3_s2:1", 4, 3, 2),
        ("pi3_s2:2", 4, 3, 6),
        ("pi_np3:2", 6, 3, 22),
    ],
)
def test_catalog_dimensions_and_orders(target, m, r, order):
    pm = catalog(target)
    assert (pm.m, pm.r, pm.order) == (m, r, order)
    assert maps._target(target)[3] == (m, r)  # read from the family row, without building
    assert pm.certificate is not None and pm.certificate.verdict
    assert pm.label.startswith(target)


def test_catalog_pi_n_orders_odd():
    for n, d in [(1, 1), (1, -3), (2, 2), (3, -1), (4, 3)]:
        pm = catalog(f"pi_n:{n},{d}")
        assert pm.order % 2 == 1


def test_catalog_rejects_bad_targets():
    texts = {
        "pi_np1:2": "pi_np1:2 is served by pi3_s2 (pi_3(S^2) is infinite cyclic)",
        "pi_np1:1": "pi_np1 needs n >= 3",
        "pi_np2:1": "pi_np2 needs n >= 2",
        "pi_n:0,1": "pi_n needs n >= 1",
        "pi_np3:1": "pi_np3 needs n >= 2",
        "nope:3": "unknown catalog target 'nope'",
        "pi_n:x,y": "malformed catalog target 'pi_n:x,y'",
        "pi_n:1": "pi_n takes two arguments: pi_n:n,d",
        "pi_np1:3,4": "pi_np1 takes one argument: pi_np1:n",
        "pi3_s2:1,2": "pi3_s2 takes one argument: pi3_s2:d",
        "pi_np2": "pi_np2 takes one argument: pi_np2:n",
        "": "unknown catalog target ''",
    }
    for bad, text in texts.items():
        with pytest.raises(CatalogError) as err:
            catalog(bad)
        assert str(err.value) == text, bad


HOPF_PHI = "suspend(hopf.f,hopf.g,1)"
STEM_2 = f"compose(hopf.f,{HOPF_PHI}),compose(hopf.g,{HOPF_PHI})"


@pytest.mark.parametrize(
    "target, label, shape",
    [
        ("pi_n:2,3", "suspend(circle(3).f,circle(3).g,1)", (3, 3, 5)),
        ("pi_np1:3", HOPF_PHI, (5, 4, 3)),
        ("pi_np2:3", f"suspend({STEM_2},1)", (6, 4, 11)),
        ("pi3_s2:2", "compose(hopf.f,pi_n:3,2 := suspend(circle(2).f,circle(2).g,2))", (4, 3, 6)),
        ("pi_np3:3", f"suspend(compose(hopf.f,suspend({STEM_2},1)),compose(hopf.g,suspend({STEM_2},1)),1)", (7, 4, 43)),
    ],
)
def test_catalog_lineage_labels(target, label, shape):
    pm = catalog(target)
    assert pm.label == f"{target} := {label}"
    assert (pm.m, pm.r, pm.order) == shape


def test_lineage_node_is_the_own_node_or_the_rebuilt_one():
    built = catalog("pi_np1:3")
    assert lineage_node(built) is built.node
    document = PolyMap.explicit(built.components, built.label, order=built.order)
    assert isinstance(lineage_node(document), SuspensionNode)
    assert lineage_node(PolyMap.explicit(built.components, "", order=3)) is None
    with pytest.raises(maps.MapError, match="do not match the map rebuilt from 'pi_np1:3'"):
        lineage_node(PolyMap.explicit(corrupt(document).components, built.label))


def test_catalog_torsion_chain_structural():
    f2 = catalog("pi_np3:2")
    assert f2.components is None
    assert f2.certificate.method == "factored-expansion"
    assert certify_order(f2, 22).verdict
    assert not certify_order(f2, 21).verdict
    g2_pairing_zero = True  # orthogonality via the shared inner map
    from quadrep.maps import _stem_pair

    f2b, g2b = _stem_pair(3, 10_000_000)
    assert bilinear_pairing(f2b, g2b).is_zero() is g2_pairing_zero


@pytest.mark.parametrize("j, order", [(1, 2), (2, 6), (3, 22)])
def test_stem_pairs_map_onto_the_two_sphere_quadric(j, order):
    f, g = maps._stem_pair(j, maps.DEFAULT_MATERIALIZE_BUDGET)
    assert (f.m, f.r, f.order) == (g.m, g.r, g.order) == (j + 3, 3, order)
    assert f.certificate.verdict and g.certificate.verdict
    assert bilinear_pairing(f, g).is_zero()


def test_materialize_budget_reaches_every_stem_builder():
    built = catalog("pi_np2:3", 0)
    assert built.label == catalog("pi_np2:3").label
    stages = [x for x in lineage(built) if x.node is not None]
    assert {type(x.node) for x in stages} == {SuspensionNode, CompositionNode}
    assert all(x.components is None for x in stages)
    assert built.certificate.method == "factored-expansion" and built.certificate.verdict


def test_catalog_deep_suspension():
    sus = catalog("pi_np3:3")
    assert (sus.m, sus.r, sus.order) == (7, 4, 43)
    assert sus.certificate.verdict
    # depth-2 orthogonality: b-pairing of the deep pair is exactly zero
    node = sus.node
    assert bilinear_pairing(node.f, node.g).is_zero()


def _count_calls(monkeypatch, name):
    """Wrap maps.<name> so that each call appends its first argument."""
    seen = []
    real = getattr(maps, name)

    def counted(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(maps, name, counted)
    return seen


@pytest.mark.parametrize("target", ["pi_n:2,2", "pi_np1:3", "pi_np2:3", "pi3_s2:2", "pi_np3:2"])
def test_catalog_passes_its_budget_to_every_builder(monkeypatch, target):
    budget = maps.DEFAULT_MATERIALIZE_BUDGET + 1
    seen = []
    for name in ("suspend", "compose_maps"):
        real = getattr(maps, name)

        def recorded(*args, real=real, **kwargs):
            seen.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("materialize_budget"))
            return real(*args, **kwargs)

        monkeypatch.setattr(maps, name, recorded)
    catalog(target, materialize_budget=budget)
    assert seen and set(seen) == {budget}


def test_catalog_proves_each_node_once(monkeypatch):
    certified = _count_calls(monkeypatch, "certify_order")
    expanded = _count_calls(monkeypatch, "_expansion_cert")
    sus = catalog("pi_np3:3")
    assert sus.certificate.verdict
    # builders prove and never verify: the Hopf pair (2), phi, f1, g1, the
    # order-11 suspension, f2, g2 and the result get one expansion each, and
    # every child is cited
    assert len(certified) == 0
    assert len(expanded) == 9


def test_certify_order_leaves_map_unchanged():
    f, _ = hopf_pair()
    raw = PolyMap.explicit(list(f.components), "raw", order=2)
    for method in ("auto", "expansion", "grid"):
        assert certify_order(raw, 2, method=method).verdict
        assert raw.certificate is None


def test_maps_and_certificates_are_frozen():
    pm = catalog("pi_np1:3")
    for name, value in [
        ("certificate", Certificate(3, "full-expansion", True)),
        ("label", "forged"),
        ("order", 5),
        ("components", None),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pm, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pm.certificate.verdict = False
    assert pm.certificate.verdict and pm.order == 3


def test_maps_and_certificates_are_deeply_immutable():
    pm = catalog("pi_n:1,2")
    comp = pm.components[0]
    summary = pm.certificate.summary()
    with pytest.raises(TypeError):
        pm.components[0] = Polynomial.variable(2, 0)
    with pytest.raises(TypeError):
        pm.certificate.detail["difference_terms"] = 99
    with pytest.raises(TypeError):
        comp.terms[(2, 0)] = GaussianRational(5)
    assert pm.components[0] is comp and pm.certificate.summary() == summary
    assert certify_order(pm, 2).verdict
    # nested detail values are frozen too, and come back as lists in the summary
    grid = certify_order(pm, 2, method="grid")
    assert grid.detail["per_variable_bounds"] == (4, 4)
    assert grid.summary()["detail"]["per_variable_bounds"] == [4, 4]


@pytest.mark.parametrize("target", ["pi_n:1,2", "pi_n:2,0", "pi_np1:3", "pi3_s2:2"])
def test_catalog_carries_builder_certificate(monkeypatch, target):
    built = _count_calls(monkeypatch, "_certified")
    out = catalog(target)
    (source,) = [pm for pm in built if pm.certificate is out.certificate]
    assert out is not source
    assert out.label == f"{target} := {source.label}"
    assert not source.label.startswith(target)
    assert out.components is source.components and out.node is source.node


_CHILD_RULES = {
    "suspension": (
        3,
        {
            "claimed_order": 3,
            "method": "factored-expansion",
            "verdict": "pass",
            "detail": {
                "rule": "suspension of two b-orthogonal order-k maps has order 2k-1",
                "children_order": 2,
                "children_methods": ["full-expansion", "full-expansion"],
            },
        },
        {"failed": "first factor"},
    ),
    "composition": (
        6,
        {
            "claimed_order": 6,
            "method": "factored-expansion",
            "verdict": "pass",
            "detail": {
                "rule": "q(outer(inner)) = (q^k_outer)(inner) = (q(inner))^k_outer",
                "outer_order": 2,
                "inner_order": 3,
                "children_methods": ["full-expansion", "full-expansion"],
            },
        },
        {"failed": "outer"},
    ),
}


def _node_with_child(rule, sound, stored):
    """A construction node whose first child is a copy of hopf.f carrying the
    stored certificate; an unsound copy has one extra term."""
    f, g = hopf_pair()
    comps = list(f.components)
    if not sound:
        comps[0] = comps[0] + Polynomial.variable(4, 1) * Polynomial.variable(4, 2)
    child = PolyMap.explicit(comps, "child", order=2)
    # maps are frozen; only a test injects a stored certificate this way
    object.__setattr__(child, "certificate", stored)
    if rule == "suspension":
        return SuspensionNode(child, g, suspension_triple(2), 1), child
    return CompositionNode(child, suspend(f, g, 1)), child


def _factored_cert(node, k):
    rule = maps._suspension_cert if isinstance(node, SuspensionNode) else maps._composition_cert
    return rule(node, k, maps._Budget(maps.DEFAULT_EXPANSION_BUDGET))


@pytest.mark.parametrize("rule", sorted(_CHILD_RULES))
@pytest.mark.parametrize("sound", [True, False], ids=["sound", "unsound"])
@pytest.mark.parametrize(
    "stored",
    [
        pytest.param(Certificate(2, "full-expansion", False, witness="stale"), id="failing"),
        pytest.param(Certificate(5, "full-expansion", True), id="other-order"),
        pytest.param(None, id="none"),
    ],
)
def test_uncitable_child_certificate_is_proved(monkeypatch, rule, sound, stored):
    node, child = _node_with_child(rule, sound, stored)
    proved = _count_calls(monkeypatch, "_expansion_cert")
    k, passing, failed = _CHILD_RULES[rule]
    cert = _factored_cert(node, k)
    assert proved == [child]  # the other child is cited
    if sound:
        assert cert.summary() == passing
    else:
        assert cert.summary() == {
            "claimed_order": k,
            "method": "factored-expansion",
            "verdict": "fail",
            "detail": failed,
            "witness": "nonzero difference term 2 * (2, 1, 1, 0)",
        }


@pytest.mark.parametrize("rule", sorted(_CHILD_RULES))
def test_passing_child_certificate_is_cited(monkeypatch, rule):
    node, child = _node_with_child(rule, True, None)
    object.__setattr__(child, "certificate", certify_order(child, 2))
    proved = _count_calls(monkeypatch, "_expansion_cert")
    k, passing, _ = _CHILD_RULES[rule]
    assert _factored_cert(node, k).summary() == passing
    assert proved == []


def _broken_premise(premise):
    """A structural map whose construction breaks one premise of its
    factored proof; every other premise holds."""
    f, g = hopf_pair()
    triple = suspension_triple(2)
    if premise == "inner":
        # the identity of C^4 with one bumped coefficient, claiming order 1
        inner = corrupt(identity_map(4))
        inner = PolyMap.explicit(inner.components, "bad-inner", order=1)
        return PolyMap(m=4, r=3, node=CompositionNode(f, inner), label="bad", order=2)
    if premise == "second factor":
        g = PolyMap.explicit(corrupt(g).components, "bad-g", order=2)
    elif premise == "orthogonality":
        g = f
    else:
        triple = dataclasses.replace(triple, f_coeff=triple.f_coeff + 1)
    return PolyMap(m=5, r=4, node=SuspensionNode(f, g, triple, 1), label="bad", order=3)


@pytest.mark.parametrize("premise", ["second factor", "orthogonality", "coefficient triple", "inner"])
def test_factored_proof_refuses_a_broken_premise(premise):
    pmap = _broken_premise(premise)
    cert = certify_order(pmap, pmap.order, method="expansion")
    assert cert.verdict is False and cert.method == "factored-expansion"
    assert cert.detail["failed"] == premise
    assert cert.witness


def test_factored_proof_charges_its_pairing_to_its_budget():
    budget = maps._Budget(maps.DEFAULT_EXPANSION_BUDGET)
    cert = maps._suspension_cert(suspend(*hopf_pair(), 1).node, 3, budget)
    assert cert.verdict
    # the children are cited; the b-pairing of the Hopf pair costs 20 products
    assert budget.spent == 20


# ------------------------------------------------------------------- blends


def test_blend_endpoints_match_inputs():
    f, g = hopf_pair()
    Z = np.random.default_rng(3).normal(size=(50, 4)) + 0j
    b0 = blend_homotopy(f, g, 0.0)
    b1 = blend_homotopy(f, g, 1.0)
    assert np.allclose(b0.eval_batch(Z), f.eval_batch(Z), atol=1e-14)
    assert np.allclose(b1.eval_batch(Z), g.eval_batch(Z), atol=1e-14)


def test_blend_preconditions():
    f, g = hopf_pair()
    cf, cg = circle_pair(2)
    with pytest.raises(DimensionMismatch):
        blend_homotopy(f, cg, 0.5)
    with pytest.raises(PreconditionError):
        blend_homotopy(f, f, 0.5)


def test_compose_without_orders_leaves_order_unset():
    f, _ = hopf_pair()
    raw = PolyMap.explicit(list(f.components), "raw")
    out = compose_maps(raw, identity_map(4))
    assert out.order is None and out.certificate is None


def test_catalog_is_deterministic():
    a = catalog("pi_np1:3")
    b = catalog("pi_np1:3")
    assert a.components == b.components
    assert a.label == b.label


def test_catalog_pi3_s2_zero_is_constant():
    pm = catalog("pi3_s2:0")
    assert (pm.m, pm.r, pm.order) == (4, 3, 0) and maps._target("pi3_s2:0")[3] == (4, 3)
    assert pm.components[0] == Polynomial.constant(4, 1)


def test_grid_refutes_corrupted_map():
    f, _ = circle_pair(2)
    bad = corrupt(f)
    cert = certify_order(bad, 2, method="grid")
    assert not cert.verdict and cert.witness


def test_blend_rejects_bad_parameter():
    f, g = hopf_pair()
    with pytest.raises(ValueError):
        blend_homotopy(f, g, 1.5)


def test_three_certification_routes_agree():
    # one map, three independent exact routes: naive expansion, factored
    # expansion through the suspension node, and the evaluation grid
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    naive = certify_order(phi, 3, method="expansion")
    assert naive.verdict and naive.method == "full-expansion"
    # a budget below the naive cost but above the children's forces factoring
    factored = certify_order(phi, 3, method="expansion", expansion_budget=500)
    assert factored.verdict and factored.method == "factored-expansion"
    grid = certify_order(phi, 3, method="grid")
    assert grid.verdict and grid.method == "exact-evaluation"


def test_three_routes_reject_corruption():
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    bad = corrupt(phi, comp_idx=2)
    for method in ("expansion", "grid"):
        cert = certify_order(bad, 3, method=method)
        assert not cert.verdict and cert.witness


@pytest.mark.parametrize("target", ["pi_n:2,2", "pi_n:3,-2", "pi_np1:4", "pi_np1:6", "pi_np2:4"])
def test_suspension_materializes_at_exactly_its_cost(target, monkeypatch):
    node = catalog(target).node
    budgets = []

    class Recorded(maps._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(maps, "_Budget", Recorded)
    comps = maps._materialize_suspension(node, maps.DEFAULT_MATERIALIZE_BUDGET)
    cost = budgets[-1].spent
    assert comps == maps._materialize_suspension(node, cost)
    assert maps._materialize_suspension(node, cost - 1) is None


def test_composition_materializes_at_exactly_its_cost():
    # z1 * z3 squares no argument: compose charges 340 products to form z1,
    # then 340 * 84 to multiply by z3, 28,900 in all; the former pre-check
    # refused every budget below 340 squared
    inner = catalog("pi_n:3,7")
    assert [len(c) for c in inner.components] == [340, 340, 84, 84]
    z = [Polynomial.variable(4, i) for i in range(4)]
    node = CompositionNode(PolyMap.explicit([z[0] * z[2]], "z1*z3"), inner)
    assert maps._materialize_composition(node, 28_900) == [(z[0] * z[2]).compose(inner.components)]
    assert maps._materialize_composition(node, 28_899) is None


def test_composition_precheck_refuses_below_the_squares_without_composing(monkeypatch):
    # hopf.f's first component squares all four arguments, so compose would
    # charge at least 2 * 340**2 + 2 * 84**2 products
    f, _ = hopf_pair()
    node = CompositionNode(f, catalog("pi_n:3,7"))
    squares = 2 * 340**2 + 2 * 84**2

    class Composed(Exception):
        pass

    def compose(*args, **kwargs):
        raise Composed

    monkeypatch.setattr(Polynomial, "compose", compose)
    assert maps._materialize_composition(node, squares - 1) is None
    with pytest.raises(Composed):
        maps._materialize_composition(node, squares)


# ------------------------------------------------------ expansion oracle
#
# The expansion proof forms q(f) - q^k as one sum of products.  The oracle
# below is the former proof: each component squared on its own, the squares
# added one at a time, then q^k subtracted.  Both must give the same
# certificate, field for field, on success and on failure.


def former_expansion_cert(pmap, k, budget):
    if pmap.components is not None:
        cost = maps._squaring_cost(pmap)
        if budget.spent + cost + maps._form_power_cost(pmap.m, k) <= budget.limit:
            budget.charge(cost)
            total = Polynomial.zero(pmap.m)
            for c in pmap.components:
                total = total + c.square()
            diff = total - quadratic_form(pmap.m) ** k
            if diff.is_zero():
                return Certificate(k, "full-expansion", True, {"difference_terms": 0, "expanded_products": budget.spent})
            mono, coeff = diff.leading_term()
            witness = f"nonzero difference term {coeff.canonical_str()} * {mono}"
            return Certificate(k, "full-expansion", False, {"difference_terms": len(diff)}, witness)
    if isinstance(pmap.node, SuspensionNode):
        return maps._suspension_cert(pmap.node, k, budget)
    if isinstance(pmap.node, CompositionNode):
        return maps._composition_cert(pmap.node, k, budget)
    raise InfeasibleError("no structure node to factor through")


def both_expansion_certs(pmap, k, monkeypatch, budget=maps.DEFAULT_EXPANSION_BUDGET):
    """(certificate fields or error type) by the single accumulation, then by
    the oracle, which also stands in for every factored proof's children."""
    out = []
    for cert_fn in (maps._expansion_cert, former_expansion_cert):
        with monkeypatch.context() as mp:
            mp.setattr(maps, "_expansion_cert", cert_fn)
            try:
                cert = cert_fn(pmap, k, maps._Budget(budget))
                out.append((cert.claimed_order, cert.method, cert.verdict, dict(cert.detail), cert.witness))
            except InfeasibleError as exc:
                out.append(type(exc))
    return out


def lineage(pmap):
    """The map and every map it was built from, each once."""
    seen, stack = {}, [pmap]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            stack += [getattr(x.node, name) for name in ("f", "g", "outer", "inner") if hasattr(x.node, name)]
    return list(seen.values())


ORACLE_TARGETS = (
    [f"pi_n:{n},{d}" for n in range(1, 5) for d in range(-3, 4)]
    + [f"pi_np1:{n}" for n in range(3, 7)]
    + [f"pi3_s2:{d}" for d in (-2, -1, 0, 1, 2, 7)]
    + ["pi_np2:2", "pi_np2:3", "pi_np2:4", "pi_np3:2"]
)


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_single_accumulation_certifies_as_the_former_expansion(target, monkeypatch):
    methods = set()
    for x in lineage(catalog(target)):
        if x.order is None:
            continue
        for k in sorted({x.order, x.order + 1, max(x.order - 1, 0)}):
            new, old = both_expansion_certs(x, k, monkeypatch)
            assert new == old, (x.label, k)
            methods.add(new[1] if isinstance(new, tuple) else new)
            if isinstance(new, tuple) and k != x.order:
                assert not new[2] and new[4]
    assert "full-expansion" in methods or target == "pi_np3:2"


@pytest.mark.parametrize("target", ["pi_n:1,3", "pi_n:3,-2", "pi_np1:3", "pi3_s2:2", "pi_np2:2"])
def test_single_accumulation_fails_corrupted_maps_as_the_former_expansion(target, monkeypatch):
    pm = catalog(target)
    for idx, comp in enumerate(pm.components):
        for delta in (1, -3):
            new, old = both_expansion_certs(corrupt(pm, idx, delta), pm.order, monkeypatch)
            assert new == old and new[1] == "full-expansion" and not new[2] and new[4]
    # a component that vanishes leaves no square to form
    zeroed = PolyMap.explicit([Polynomial.zero(pm.m), *pm.components[1:]], "zeroed")
    new, old = both_expansion_certs(zeroed, pm.order, monkeypatch)
    assert new == old and not new[2]
    # within a budget too small for the components, both factor or both refuse
    new, old = both_expansion_certs(pm, pm.order, monkeypatch, budget=10)
    assert new == old


@pytest.mark.parametrize("order, error", [(True, TypeError), (2.0, TypeError), ("2", TypeError), (-1, ValueError)])
def test_polymap_refuses_an_order_a_document_cannot_spell(order, error):
    # "order": true would be written, and read back as a malformed document
    with pytest.raises(error, match="the order"):
        PolyMap.explicit(hopf_pair()[0].components, "x", order=order)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: suspend(*hopf_pair(), True), "the new variable count True"),
        (lambda: Polynomial(True, {(1,): 1}), "the variable count True"),
        (lambda: Polynomial.zero(True), "the variable count True"),
        (lambda: Polynomial.variable(True, 0), "the variable count True"),
        (lambda: Polynomial(2.0, {}), "the variable count 2.0"),
        (lambda: Polynomial.constant(True, 1), "the variable count True"),
        (lambda: Polynomial.variable(3, 1.0), "the variable index 1.0"),
        (lambda: Polynomial.variable(2, 0).extend(3.0), "the variable count 3.0"),
        (lambda: Polynomial.variable(2, 0).derivative(0.0), "the variable index 0.0"),
        (lambda: certify_order(hopf_pair()[0], True), "the claimed order True"),
        (lambda: certify_order(hopf_pair()[0], 2.0), "the claimed order 2.0"),
    ],
    ids=[
        "suspend", "polynomial", "zero", "variable", "float-polynomial", "constant", "float-index", "float-extend",
        "float-derivative", "certify", "float-certify",
    ],
)
def test_counts_are_refused_at_entry_unless_ints(build, what):
    with pytest.raises(TypeError, match=f"^{what} is"):
        build()


def test_pairing_of_compositions_through_one_inner_map_composes_the_outer_pairing():
    # q(f) = q^2 is a nonzero outer pairing, so the shared inner map is substituted into it
    f, g = hopf_pair()
    phi = suspend(f, g, 1)
    a, b = compose_maps(f, phi), compose_maps(f, phi)
    assert a.node.inner is b.node.inner
    pairing = bilinear_pairing(a, b)
    assert pairing == sum_of_products(list(zip(a.components, b.components)))
    assert len(pairing) == 210
