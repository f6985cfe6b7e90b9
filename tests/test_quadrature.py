"""Domain and chain quadrature against exact and closed-form oracles."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import (MeshChainFrame, brute_domain_value, brute_sector_values, cartesian_tree,
                     cluster_facet_exponents, domain_monomial_integral, heap_trees,
                     interleavings, log_domain_sector_values, mesh, mesh_chain_value,
                     mesh_det_value, mp_gamma, mp_selberg_rhs, one_sided_jacobi_rules,
                     raw_gap_integrand, raw_mc_value, raw_ratio, sector_axes,
                     simplex_monomial_integral)
from selberg3 import closed_forms as cf
from selberg3 import quadrature
from selberg3.chains import OrderMap, enumerate_maps, gamma_chain, merged_order, unit_chain
from selberg3.errors import DomainError, InadmissibleTripleError
from selberg3.integrands import Integrand, assembled_integrand, h_pole_count, is_admissible
from selberg3.params import ParamSet
from selberg3.quadrature import (QuadSpec, _ChainFrame, _describe, _described_values,
                                 _frame_values, _jacobi_rules, _mc_value, _on_axis,
                                 _sector_exponents, _sector_frames, _sector_level, _sector_table,
                                 _StackFrame, _tensor_level, facet_exponents, integrate_chain,
                                 integrate_domain, integrate_family)

EMPTY_MAP = OrderMap(())


def _level_value(ig, order, n, members=()):
    """The sector rule's value of ``ig`` on one domain at n nodes per axis,
    with the rule exponents of the family ``ig`` + ``members``."""
    descs = [_describe(m, tuple(order)) for m in (ig, *members)]
    table = _sector_table(descs[0].N)
    return _sector_level(descs, table, _sector_exponents(descs, table), n)[0]


def _oracle_nodes(K):
    """Nodes per axis of the per-sector oracle: its loops are plain Python."""
    return 3 if K >= 4 else 4


class TestDeterministic:
    def test_euler_beta(self):
        p = ParamSet(k1=1, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        ig = assembled_integrand("selb", p)
        [(val, err)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(), p)
        want = float(mp.beta(2.5, 1.5))
        assert val == pytest.approx(want, rel=1e-12)
        assert err < 1e-10

    def test_one_twelfth(self):
        p = ParamSet(k1=2, k2=0, alpha=1.0, beta1=1.0, gamma=1.0)
        ig = assembled_integrand("selb", p)
        [(val, _)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(), p)
        assert val == pytest.approx(1.0 / 12.0, rel=1e-10)

    def test_zero_dimension(self):
        p = ParamSet(k1=0, k2=0)
        ig = assembled_integrand("selb30", p)
        assert integrate_domain(ig, EMPTY_MAP, QuadSpec(), p) == [(1.0, 0.0)]

    def test_selb3_11_against_value(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.2)
        ig = assembled_integrand("selb3", p)
        val, _ = integrate_chain(ig, gamma_chain(1, 1, p.gamma), QuadSpec(), p)
        want = cf.sl3_selberg_rhs(p).to_float()
        assert val == pytest.approx(want, rel=1e-6)

    def test_convergence_order_regression(self):
        # a described integrand takes the sector rule, which converges
        # geometrically even at the coincidence corner of selb k=3, where
        # a tensor rule over the chain decays algebraically
        p = ParamSet(k1=3, k2=0, alpha=1.2, beta1=2.2, gamma=-0.25)
        ig = assembled_integrand("selb", p)
        want = float(mp_selberg_rhs(3, 1.2, 2.2, -0.25))  # the ordered chamber
        errs = []
        for n in (8, 12, 16):
            [(val, err)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(nodes_per_axis=n), p)
            assert abs(val - want) <= err
            errs.append(abs(val - want))
        # every four nodes per axis gain at least three digits
        assert errs[1] <= errs[0] / 1e3 and errs[2] <= errs[1] / 1e3

    def test_half_line_scale_in_closed_form(self):
        # k = 1 is the scale axis alone: Gamma(alpha), with no rule and no error
        p = ParamSet(k1=1, k2=0, alpha=1.5, gamma=-0.1)
        [(val, err)] = integrate_domain(assembled_integrand("exp", p), EMPTY_MAP,
                                        QuadSpec("deterministic"), p)
        assert val == pytest.approx(math.gamma(1.5), rel=1e-15) and err == 0.0
        for k, gamma in ((2, -0.15), (3, -0.15), (3, 0.4)):
            p = ParamSet(k1=k, k2=0, alpha=1.5, gamma=gamma)
            want = float(mp.mpf(1) / mp.factorial(k) * mp.fprod(
                mp_gamma(1.5 + j * gamma) * mp_gamma(1 + (j + 1) * gamma) / mp_gamma(1 + gamma)
                for j in range(k)))
            # the default levels stop once the estimate certifies 1e-8, so
            # 1e-10 is asked of a fixed finer rule; both bars hold
            for spec in (QuadSpec("deterministic"), QuadSpec("deterministic", nodes_per_axis=24)):
                [(val, err)] = integrate_domain(assembled_integrand("exp", p), EMPTY_MAP, spec, p)
                assert abs(val - want) <= 3.0 * err + 1e-14 * want
            assert val == pytest.approx(want, rel=1e-10)

    def test_black_box_rejected_on_the_half_line(self):
        ig = Integrand(_poly, 1, 0, "0inf", 0, 1.0, 0.0, 1.0, 1.0, exp_rates=(1.0, 1.0),
                       kind="callable")
        for scheme in ("deterministic", "monte_carlo"):
            with pytest.raises(DomainError, match="half-line"):
                integrate_domain(ig, EMPTY_MAP, QuadSpec(scheme), ParamSet(k1=1, k2=0))

    def test_dimension_cap(self):
        p = ParamSet(k1=3, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.1)
        ig = assembled_integrand("selb3", p)
        with pytest.raises(DomainError):
            integrate_domain(ig, OrderMap((1, 2)), QuadSpec("deterministic"), p)
        # the half-line's rule has one axis fewer: k = 6 has five
        p = ParamSet(k1=6, k2=0, alpha=1.5, gamma=-0.1)
        with pytest.raises(DomainError, match="5 on the half-line"):
            integrate_domain(assembled_integrand("exp", p), EMPTY_MAP,
                             QuadSpec("deterministic"), p)

    @pytest.mark.parametrize("scheme", ["deterministic", "monte_carlo"])
    def test_inadmissible_triple_rejected(self, scheme):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        with pytest.raises(InadmissibleTripleError):
            integrate_chain(assembled_integrand("J", p, indices=(2, 0, 0)),
                            gamma_chain(2, 1, p.gamma), QuadSpec(scheme), p)

    def test_unknown_scheme(self):
        p = ParamSet(k1=1, k2=0, alpha=1.5, beta1=1.5, gamma=-0.1)
        ig = assembled_integrand("selb", p)
        with pytest.raises(DomainError):
            integrate_domain(ig, EMPTY_MAP, QuadSpec("adaptive"), p)


def _poly(t, s):
    t, s = np.atleast_2d(t), np.atleast_2d(s)
    out = np.ones(t.shape[0])
    for i in range(t.shape[1]):
        out = out * t[:, i] ** (i + 1)
    for i in range(s.shape[1]):
        out = out * (1.0 + s[:, i]) ** 2
    return out


def _frame_cases():
    """(id, integrand, k1, k2) covering every weight kind at K = 1..4."""
    out = []
    for k in (1, 2, 3, 4):
        # gamma = -0.25 is the convergence threshold -1/k at k = 4
        p = ParamSet(k1=k, k2=0, alpha=1.2, beta1=2.2, gamma=-0.25 if k < 4 else -0.2)
        out.append((f"plain-selb-{k}", assembled_integrand("selb", p), k, 0))
        p = ParamSet(k1=k, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)
        out.append((f"moment-{k}", assembled_integrand("aomoto", p, indices=k // 2), k, 0))
    for k1, k2 in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 1)):
        ig = Integrand(_poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        out.append((f"callable-{k1}{k2}", ig, k1, k2))
    for k1, k2 in ((1, 1), (2, 1), (2, 2), (3, 1)):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        out.append((f"g-{k1}{k2}", assembled_integrand("selb3", p), k1, k2))
        out.append((f"plain-selb30-{k1}{k2}", assembled_integrand("selb30", p), k1, k2))
    for which in ("J", "Jt"):
        for k1, k2, idx in ((1, 1, (1, 1, 1)), (2, 1, (1, 0, 0)), (2, 2, (1, 1, 1)),
                            (2, 2, (2, 2, 0))):
            p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
            ig = assembled_integrand(which, p, indices=idx)
            out.append((f"{ig.kind}-{k1}{k2}-{idx}", ig, k1, k2))
    return out


FRAME_CASES = _frame_cases()


class TestBroadcastFrame:
    """Black boxes: the broadcast tensor frame against the full node mesh,
    bit for bit.  Described integrands: the sector rule on one domain
    against the per-sector oracle on raw gaps."""

    @pytest.mark.parametrize("ig,k1,k2", [c[1:] for c in FRAME_CASES],
                             ids=[c[0] for c in FRAME_CASES])
    def test_matches_full_mesh(self, ig, k1, k2):
        K = k1 + k2
        n = QuadSpec().nodes_for(K)
        maps = enumerate_maps(k1, k2)
        for M in {maps[0], maps[-1]}:
            order = merged_order(M, k1, k2)
            if ig.kind != "callable":
                m = _oracle_nodes(K)
                assert _level_value(ig, order, m) == pytest.approx(
                    brute_domain_value(ig, order, m), rel=1e-13, abs=0.0)
                continue
            aw = facet_exponents(ig, M)
            for m in (n - 2, n):
                assert _tensor_level([ig], order, aw, m) == [mesh_det_value(ig, order, aw, m)]

    def test_both_coordinate_kinds_in_one_order(self):
        p = ParamSet(k1=2, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand("selb3", p)
        kinds = set()
        for M in enumerate_maps(2, 2):
            order = merged_order(M, 2, 2)
            kinds.add("".join(knd for knd, _ in order))
            assert _level_value(ig, order, 3) == pytest.approx(brute_domain_value(ig, order, 3),
                                                               rel=1e-13, abs=0.0)
        assert len(kinds) == len(enumerate_maps(2, 2)) > 1

    def test_nodes_exponentially_close_to_unit_facet(self):
        # points within 1e-30 of r = 1, where a gap taken as a difference
        # of cumulatives would cancel to zero: the chain frame that Monte
        # Carlo and the tensor rule evaluate through must not, against the
        # raw-gap integrand, whose gaps are products of the ratios
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand("selb3", p)
        x = np.array([0.3, 1e-9, 1e-30])  # 1 - r per axis
        logr, logx = np.log1p(-x), np.log(x)
        for M in enumerate_maps(2, 1):
            order = merged_order(M, 2, 1)
            aw = facet_exponents(ig, M)
            frame = _ChainFrame([_on_axis(logr, i, 3) for i in range(3)],
                                [_on_axis(logx, i, 3) for i in range(3)])
            got = np.broadcast_to(next(_frame_values([ig], order, aw, frame)), frame.shape).ravel()
            assert np.all(np.isfinite(got))
            for val, idx in zip(got, mesh([np.arange(3)] * 3)):
                r, xi = 1.0 - x[idx], x[idx]
                c = np.cumprod(r)
                gaps = [xi[0], c[0] * xi[1], c[1] * xi[2], c[2]]
                want = (raw_gap_integrand(ig, order, gaps) * c[0] * c[1]
                        / np.prod(r ** np.array(aw.w0) * xi ** np.array(aw.w1)))
                assert val == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K,n,q", [(3, 88, 4), (4, 24, 4), (4, 24, 12)])
    def test_frame_arrays_match_full_mesh(self, K, n, q):
        # elementwise, so that a last-bit change the weighted sum happens
        # to round away still shows; q scales the exponents at r = 0
        exponents = [q * (0.5 + 0.1 * i) for i in range(K)]
        rules = _jacobi_rules(n, exponents)
        logr = [rules[e][0] for e in exponents]
        logx = [np.log(-np.expm1(v)) for v in logr]
        frame = _ChainFrame([_on_axis(v, i, K) for i, v in enumerate(logr)],
                            [_on_axis(v, i, K) for i, v in enumerate(logx)])
        ref = MeshChainFrame(mesh(logr), mesh(logx))

        def full(arr):
            return np.broadcast_to(arr, frame.shape).ravel()

        for i in range(K):
            for got, want in ((frame.LS, ref.LS), (frame.C, ref.C), (frame.OM, ref.OM),
                              (frame.LOM, ref.LOM), (frame.LOGX, ref.LOGX)):
                assert np.array_equal(full(got[i]), want[:, i])
            for j in range(i + 1, K):
                assert np.array_equal(full(frame.lgap(i, j)), ref.lgap(i, j))

    def test_axis_rules_are_shared_and_read_only(self):
        rule = _jacobi_rules(24, [0.3])[0.3]
        assert _jacobi_rules(24, [0.3, 1.5])[0.3] is rule
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _halfline_cases():
    """(id, integrand, k1, k2) of the half-line kinds: 'plain' and 'g'."""
    out = []
    for k in (1, 2, 3):
        p = ParamSet(k1=k, k2=0, alpha=1.5, gamma=-0.15)
        out.append((f"plain-exp-{k}", assembled_integrand("exp", p), k, 0))
    for k1, k2 in ((2, 0), (1, 1), (2, 1), (2, 2), (3, 1)):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        ig = assembled_integrand("exp3", p)
        out.append((f"{ig.kind}-exp3-{k1}{k2}", ig, k1, k2))
    return out


HALFLINE_CASES = _halfline_cases()


def _min_gap(R, halfline=False):
    """Smallest distance between two chain coordinates of each sample
    row, or between the top coordinate and 1 on [0,1]; on the half-line
    column 0 of R is the unit top coordinate itself."""
    C = np.cumprod(R, axis=1)
    if not halfline:
        C = np.hstack([np.ones((len(R), 1)), C])
    return np.min(C[:, :-1] - C[:, 1:], axis=1, initial=np.inf)


def _sample_rows(ig, aw, K, n, seed):
    """Rows drawn the way Monte Carlo draws them; on the half-line
    column 0 is 1 and draws nothing."""
    rng = np.random.default_rng(seed)
    R = np.ones((n, K))
    for i in range(1 if ig.interval == "0inf" else 0, K):
        R[:, i] = np.clip(rng.beta(aw.w0[i] + 1.0, aw.w1[i] + 1.0, size=n), 1e-12, 1 - 1e-12)
    return R


def _assert_close_where_separated(got, want, gap, magnitude):
    """rel <= 1e-9 on rows whose smallest gap exceeds 1e-6, times the
    cancellation of the raw weight sum, which the raw side pays in lost
    digits (magnitude: the same sum over the terms' absolute values)."""
    keep = gap > 1e-6
    assert keep.sum() > 0.5 * len(keep)
    cancel = magnitude[keep] / np.abs(want[keep])
    assert np.median(cancel) < 10.0
    assert np.all(np.abs(got[keep] - want[keep]) <= 1e-9 * cancel * np.abs(want[keep]))


class TestFrameAgainstRawOracle:
    """Frame values against the raw-coordinate integrand x Jacobian / model."""

    @pytest.mark.parametrize("ig,k1,k2", [c[1:] for c in FRAME_CASES + HALFLINE_CASES],
                             ids=[c[0] for c in FRAME_CASES + HALFLINE_CASES])
    def test_tensor_views(self, ig, k1, k2):
        """Black boxes: the chain frame on the tensor rule's nodes.
        Described integrands: every sector's frame, on its own and all
        sectors stacked, against the per-sector oracle on raw gaps, point
        by point."""
        K = k1 + k2
        maps = enumerate_maps(k1, k2)
        for M in {maps[0], maps[-1]}:
            order = merged_order(M, k1, k2)
            if ig.kind == "callable":
                aw = facet_exponents(ig, M)
                logr = [_jacobi_rules(10, aw.w0)[w][0] for w in aw.w0]
                frame = _ChainFrame([_on_axis(v, i, K) for i, v in enumerate(logr)],
                                    [_on_axis(np.log(-np.expm1(v)), i, K)
                                     for i, v in enumerate(logr)])
                got = np.broadcast_to(next(_frame_values([ig], order, aw, frame)),
                                      frame.shape).ravel()
                R = np.exp(mesh(logr))
                _assert_close_where_separated(got, raw_ratio(ig, order, aw, R), _min_gap(R),
                                              raw_ratio(ig, order, aw, R, magnitude=True))
                continue
            descs = [_describe(ig, tuple(order))]
            table = _sector_table(descs[0].N)
            E, dim, n = _sector_exponents(descs, table), table.dim, _oracle_nodes(K)
            rules = _jacobi_rules(n, E.ravel().tolist())
            stack = _StackFrame(table, E, rules, n)
            stacked = np.broadcast_to(next(_described_values(descs, stack, stack.log_model())),
                                      (len(table.trees),) + (n,) * dim)
            for s, (frame, _) in enumerate(_sector_frames(descs[0], table, E, rules)):
                tree = table.trees[s]
                axes = [rules[e] for e in E[s].tolist()]
                got = np.broadcast_to(next(_described_values(descs, frame)), (n,) * dim).ravel()
                ys = [tuple(y) for y in np.exp(mesh([a[0] for a in axes]))] if dim else [()]
                want = np.array(brute_sector_values(ig, order, tree.parent, E[s].tolist(), ys))
                # to 1e-13 of the sector's largest value: a symmetrized
                # weight may cancel to far below it at single points
                scale = 1e-13 * np.abs(want).max()
                assert np.all(np.abs(got - want) <= scale)
                assert np.all(np.abs(stacked[s].ravel() - want) <= scale)

    @pytest.mark.parametrize("ig,k1,k2", [c[1:] for c in FRAME_CASES + HALFLINE_CASES],
                             ids=[c[0] for c in FRAME_CASES + HALFLINE_CASES])
    def test_sample_rows(self, ig, k1, k2):
        K = k1 + k2
        maps = enumerate_maps(k1, k2)
        for M in {maps[0], maps[-1]}:
            order = merged_order(M, k1, k2)
            aw = facet_exponents(ig, M)
            halfline = ig.interval == "0inf"
            R = _sample_rows(ig, aw, K, 2000, seed=K)
            logx = [None if i == 0 and halfline else np.log1p(-R[:, i]) for i in range(K)]
            frame = _ChainFrame([np.log(R[:, i]) for i in range(K)], logx)
            got = next(_frame_values([ig], order, aw, frame))
            want = raw_ratio(ig, order, aw, R)
            _assert_close_where_separated(got, want, _min_gap(R, halfline),
                                          raw_ratio(ig, order, aw, R, magnitude=True))
            if halfline:
                # the half-line integrand has no 1 - c factor: it is never logged
                assert "LOM" not in vars(frame) and "OM" not in vars(frame)


def _family_of(ig):
    """``ig`` and, on [0,1], every integrand differing from it only in its
    weight at its pole count: each admissible J and Jt triple, and the
    plain weight at no poles."""
    if ig.interval == "0inf":
        return [ig]
    k1, k2, P = ig.k1, ig.k2, ig.pole_count
    out = [ig] + [replace(ig, kind=kind, indices=(l1, l2, m))
                  for kind in ("h", "ht") for l1 in range(k1 + 1) for l2 in range(k2 + 1)
                  for m in range(min(l1, l2) + 1)
                  if is_admissible(l1, l2, m, k1, k2) and h_pole_count(l1, l2, m, k2) == P]
    if P == 0:
        out.append(replace(ig, kind="plain", indices=()))
    return list(dict.fromkeys(out))


DESCRIBED_CASES = [c for c in FRAME_CASES + HALFLINE_CASES if c[1].kind != "callable"]


class TestFactoredSectorFrame:
    """The sector frame carries a sector's smooth part only: its values
    against the log-domain evaluation it replaced, and its work."""

    @pytest.mark.parametrize("ig,k1,k2", [c[1:] for c in DESCRIBED_CASES],
                             ids=[c[0] for c in DESCRIBED_CASES])
    def test_matches_the_log_domain_oracle(self, ig, k1, k2):
        # sector by sector at 8 nodes per axis, every member of the family
        # at the family's exponents; the largest deviation measured over
        # these cases, on every domain, is 1.1e-14 of the sector's largest
        # value at 8 nodes per axis and 1.7e-14 at 12, 14 and 24
        members = _family_of(ig)
        maps = enumerate_maps(k1, k2)
        for M in {maps[0], maps[-1]}:
            order = tuple(merged_order(M, k1, k2))
            descs = [_describe(m, order) for m in members]
            table = _sector_table(descs[0].N)
            E, dim, n = _sector_exponents(descs, table), table.dim, 8
            rules = _jacobi_rules(n, E.ravel().tolist())
            for s, (frame, _) in enumerate(_sector_frames(descs[0], table, E, rules)):
                tree, Es = table.trees[s], E[s].tolist()
                LY = {v: _on_axis(rules[e][0], d, dim)
                      for d, (v, e) in enumerate(zip(sector_axes(tree), Es))}
                want = log_domain_sector_values(descs, tree, LY, Es, table.desc[s].tolist())
                for got, ref in zip(_described_values(descs, frame), want, strict=True):
                    got, ref = np.broadcast_to(got, (n,) * dim), np.broadcast_to(ref, (n,) * dim)
                    assert np.all(np.abs(got - ref) <= 5e-14 * np.abs(ref).max())

    def test_one_full_grid_exp_per_sector(self, monkeypatch):
        # the y-monomials stay in the axis rules and the weight terms are
        # products of runs, so a level takes one grid-sized exp per sector
        # however many terms the weight has; an exp per term would show
        # here as 1 + terms per sector
        p = ParamSet(k1=2, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand("selb3", p)
        desc = _describe(ig, tuple(merged_order(enumerate_maps(2, 2)[0], 2, 2)))
        assert len(desc.terms) > 1
        table = _sector_table(desc.N)
        E, n = _sector_exponents([desc], table), 6
        sizes = []

        class ExpSpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                sizes.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(quadrature, "np", ExpSpy())
        _sector_level([desc], table, E, n)
        assert table.dim == 4 and sum(size >= n ** 4 for size in sizes) <= len(table.trees)

    @pytest.mark.parametrize("which,most", [("selb3", 440), ("selb30", 390)])
    def test_full_grid_passes_per_level(self, monkeypatch, which, most):
        # every ufunc call whose result spans a sector's whole grid, over one
        # rule-dimension-4 level at n = 14 on the first domain (42 sectors):
        # 413 for selb3 and 365 for selb30, against 592 and 418 when each
        # member multiplied its (sum g)^-wdegree in on the grid and every
        # sub-grid log part met the full-size sum on its own
        class Counting(np.ndarray):
            sizes = []

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
                out = getattr(ufunc, method)(*inputs, **kwargs)
                Counting.sizes.append(np.size(out))
                return out.view(Counting) if isinstance(out, np.ndarray) else out

        rules = quadrature._jacobi_rules
        monkeypatch.setattr(quadrature, "_jacobi_rules", lambda n, exponents: {
            e: (ly.view(Counting), w.view(Counting)) for e, (ly, w) in rules(n, exponents).items()})
        p = ParamSet(k1=2, k2=2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        order = tuple(merged_order(gamma_chain(2, 2, p.gamma).terms[0][0], 2, 2))
        desc = _describe(assembled_integrand(which, p), order)
        table, n = _sector_table(desc.N), 14
        _sector_level([desc], table, _sector_exponents([desc], table), n)
        full = sum(size >= n ** table.dim for size in Counting.sizes)
        assert len(table.trees) <= full <= most  # one exp per sector at least: the spy saw them


class TestMonteCarlo:
    def test_one_axis_density_is_exact(self):
        # for one variable the importance density matches the integrand, so
        # the estimator collapses to the exact value with ~zero spread
        p = ParamSet(k1=1, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        ig = assembled_integrand("selb", p)
        want = float(mp.beta(2.5, 1.5))
        [(val, err)] = integrate_domain(ig, EMPTY_MAP,
                                    QuadSpec("monte_carlo", sample_count=10_000), p)
        assert val == pytest.approx(want, rel=1e-13)
        assert err < 1e-15

    def test_beta_case_unbiased(self):
        p = ParamSet(k1=2, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        ig = assembled_integrand("selb", p)
        want = cf.selberg_rhs(p).to_float()
        [(val, err)] = integrate_domain(ig, EMPTY_MAP,
                                    QuadSpec("monte_carlo", sample_count=200_000), p)
        assert abs(val - want) < 4 * err

    def test_stderr_calibration(self):
        # the reported error bar must cover the true error in most replications
        p = ParamSet(k1=2, k2=0, alpha=2.5, beta1=1.5, gamma=-0.1)
        ig = assembled_integrand("selb", p)
        want = cf.selberg_rhs(p).to_float()
        cover = 0
        for rep in range(100):
            [(val, err)] = integrate_domain(
                ig, EMPTY_MAP, QuadSpec("monte_carlo", sample_count=20_000,
                                        seed=1000 + rep), p)
            cover += abs(val - want) <= 2.0 * err
        assert cover >= 90

    def test_reproducible(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        ig = assembled_integrand("exp3", p)
        spec = QuadSpec("monte_carlo", sample_count=50_000, seed=77)
        a = integrate_chain(ig, gamma_chain(1, 1, p.gamma), spec, p)
        b = integrate_chain(ig, gamma_chain(1, 1, p.gamma), spec, p)
        assert a == b

    @pytest.mark.parametrize("which,k1,k2,idx", [
        ("selb", 2, 0, None), ("selb30", 2, 2, None), ("selb3", 2, 1, None),
        ("aomoto", 3, 0, 1), ("aomoto", 2, 0, 2), ("J", 2, 1, (1, 0, 0)),
        ("Jt", 2, 2, (1, 1, 1)), ("exp", 2, 0, None), ("exp3", 2, 1, None),
        ("exp3", 2, 2, None), ("callable", 2, 1, None)])
    def test_matches_raw_coordinate_path(self, which, k1, k2, idx):
        # the half-line points are the quadrature benchmark's exp3 point
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        if which.startswith("exp"):
            p = p.with_(beta1=1.0, beta2=1.3, gamma=-0.2)
        if which == "callable":
            ig = Integrand(_poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        else:
            ig = assembled_integrand(which, p, indices=idx)
        q = QuadSpec("monte_carlo", sample_count=20_000, seed=5)
        maps = enumerate_maps(k1, k2)
        for M in {maps[0], maps[-1]}:
            order = merged_order(M, k1, k2)
            aw = facet_exponents(ig, M)
            [(val, err)], (want, want_err) = _mc_value([ig], order, aw, q), raw_mc_value(ig, order, aw, q)
            assert val == pytest.approx(want, rel=1e-6)
            assert err == pytest.approx(want_err, rel=1e-6)

    @pytest.mark.parametrize("which,k1,k2,idx", [
        ("selb3", 2, 1, None), ("exp3", 2, 1, None), ("J", 2, 2, (1, 1, 1))])
    def test_estimate_does_not_depend_on_block_size(self, monkeypatch, which, k1, k2, idx):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand(which, p, indices=idx)
        spec = QuadSpec("monte_carlo", sample_count=70_000, seed=3)
        chain = gamma_chain(k1, k2, p.gamma)
        default = integrate_chain(ig, chain, spec, p)
        monkeypatch.setattr(quadrature, "MC_BLOCK_ROWS", 1000)
        assert integrate_chain(ig, chain, spec, p) == default

    def test_frame_exact_at_a_clipped_coincidence(self):
        # a sample clipped to r = 1 - 1e-12 puts t within 1e-12 of the unit
        # top coordinate s, where subtracting raw coordinates loses four
        # digits of the pole
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        ig = assembled_integrand("exp3", p)
        M = OrderMap((1,))
        order = merged_order(M, 1, 1)
        assert order == [("s", 1), ("t", 1)]
        aw = facet_exponents(ig, M)
        r = 1.0 - 1e-12
        frame = _ChainFrame([np.zeros(1), np.log([r])], [None, np.log1p(-np.array([r]))])
        got = next(_frame_values([ig], order, aw, frame))[0]
        # s = 1 and t = r; the scale integral is Gamma(H) L^-H, L = b1 t + b2 s
        mr, a, g = mp.mpf(r), mp.mpf(p.alpha), mp.mpf(p.gamma)
        H = mp.mpf(aw.w0[0]) + 1
        scale = mp.gamma(H) * (p.beta1 * mr + p.beta2) ** (-H)
        want = (mr ** (a - 1) * (1 - mr) ** (-g - 1) * scale
                / (mr ** aw.w0[1] * (1 - mr) ** aw.w1[1]))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_exp3_11_factorization_oracle(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.0, beta2=1.3, gamma=-0.2)
        ig = assembled_integrand("exp3", p)
        val, err = integrate_chain(ig, gamma_chain(1, 1, p.gamma),
                                   QuadSpec("monte_carlo", sample_count=400_000), p)
        want = (1.3 ** p.gamma) * (2.3 ** (-p.alpha)) * float(
            mp.gamma(p.alpha) * mp.gamma(-p.gamma))
        assert abs(val - want) <= max(3 * err, 1e-3 * abs(want))


class TestHalfLineMonteCarlo:
    """Monte Carlo on the half-line stays as a cross-check of the
    closed-form scale: it samples the ratio axes only."""

    @pytest.mark.parametrize("which,k1,k2", [("exp", 1, 0), ("exp", 2, 0), ("exp", 3, 0),
                                             ("exp3", 1, 1), ("exp3", 2, 1)])
    def test_against_the_closed_form(self, which, k1, k2):
        p = ParamSet(k1=k1, k2=k2, alpha=1.5, beta1=1.0, beta2=1.3,
                     gamma=-0.15 if which == "exp" else -0.2)
        rhs = cf.exp_selberg_rhs if which == "exp" else cf.sl3_exp_rhs
        val, err = integrate_chain(assembled_integrand(which, p), gamma_chain(k1, k2, p.gamma),
                                   QuadSpec("monte_carlo", sample_count=200_000, seed=31), p)
        want = rhs(p).to_float()
        assert abs(val - want) <= 4.0 * err + 1e-14 * abs(want)
        assert err <= 1e-2 * abs(want)

    def test_exp_k3_stderr_calibration(self):
        # the error bar covers the true error in most replications
        p = ParamSet(k1=3, k2=0, alpha=1.5, gamma=-0.15)
        ig = assembled_integrand("exp", p)
        want = cf.exp_selberg_rhs(p).to_float()
        cover = 0
        for rep in range(100):
            [(val, err)] = integrate_domain(
                ig, EMPTY_MAP, QuadSpec("monte_carlo", sample_count=20_000,
                                        seed=2000 + rep), p)
            cover += abs(val - want) <= 2.0 * err
        assert cover >= 90


class TestChainDecomposition:
    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_unit_chain_matches_exact_simplex_integral(self, k1, k2):
        rng = np.random.default_rng(k1 * 7 + k2)
        p = ParamSet(k1=k1, k2=k2)
        spec = QuadSpec(nodes_per_axis=24)
        for _ in range(5):
            degs_t = [int(x) for x in rng.integers(0, 4, size=k1)]
            degs_s = [int(x) for x in rng.integers(0, 4, size=k2)]

            def poly(t, s, dt=degs_t, ds=degs_s):
                t, s = np.atleast_2d(t), np.atleast_2d(s)
                out = np.ones(t.shape[0])
                for i, d in enumerate(dt):
                    out = out * t[:, i] ** d
                for i, d in enumerate(ds):
                    out = out * s[:, i] ** d
                return out

            ig = Integrand(poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
            got, err = integrate_chain(ig, unit_chain(k1, k2), spec, p)
            want = float(simplex_monomial_integral(k1, k2, degs_t, degs_s))
            assert got == pytest.approx(want, rel=1e-13)
            assert abs(got - want) <= 3.0 * err + 1e-13 * want

    @pytest.mark.parametrize("k1,k2", [(2, 1), (2, 2), (3, 2), (4, 1), (3, 3)])
    def test_exact_tiling_identity(self, k1, k2):
        # sum of exact domain integrals equals the exact cone integral,
        # in rational arithmetic, for every monomial tried (k1+k2 up to 6)
        rng = np.random.default_rng(3 * k1 + k2)
        maps = enumerate_maps(k1, k2)
        assert len(maps) == len(interleavings(k1, k2))
        for _ in range(8):
            degs_t = [int(x) for x in rng.integers(0, 5, size=k1)]
            degs_s = [int(x) for x in rng.integers(0, 5, size=k2)]
            total = Fraction(0)
            for M in maps:
                total += domain_monomial_integral(merged_order(M, k1, k2), degs_t, degs_s)
            assert total == simplex_monomial_integral(k1, k2, degs_t, degs_s)


def _monomial(degs_t, degs_s):
    def poly(t, s):
        t, s = np.atleast_2d(t), np.atleast_2d(s)
        out = np.ones(t.shape[0])
        for i, d in enumerate(degs_t):
            out = out * t[:, i] ** d
        for i, d in enumerate(degs_s):
            out = out * s[:, i] ** d
        return out
    return poly


def _family_cases():
    """(id, members, chain, p): families whose members differ only in
    their weight."""
    out = []
    for k in (1, 2, 3, 4):
        p = ParamSet(k1=k, k2=0, alpha=1.5, beta1=1.2, gamma=-0.11)
        members = [assembled_integrand("aomoto", p, indices=ell) for ell in range(k + 1)]
        members.append(assembled_integrand("selb", p))  # the plain weight joins too
        out.append((f"aomoto-{k}", members, gamma_chain(k, 0, p.gamma), p))
    for k1, k2 in ((1, 0), (2, 0), (2, 1), (2, 2)):
        rng = np.random.default_rng(10 * k1 + k2)
        members = [Integrand(_monomial(rng.integers(0, 4, size=k1), rng.integers(0, 4, size=k2)),
                             k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
                   for _ in range(5)]
        out.append((f"monomials-{k1}{k2}", members, unit_chain(k1, k2), ParamSet(k1=k1, k2=k2)))
    p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
    members = [assembled_integrand(which, p, indices=idx) for which, idx in
               (("J", (1, 0, 0)), ("Jt", (1, 1, 1)), ("J", (2, 1, 1)), ("Jt", (0, 0, 0)))]
    assert len({ig.pole_count for ig in members}) == 1
    out.append(("J-Jt-21", members, gamma_chain(2, 1, p.gamma), p))
    return out


FAMILY_CASES = _family_cases()
FAMILY_SPECS = {"deterministic": QuadSpec(nodes_per_axis=12),
                "monte_carlo": QuadSpec("monte_carlo", sample_count=20_000, seed=9)}


class TestFamilies:
    """One pass over a family equals each member's own chain integral."""

    @pytest.mark.parametrize("scheme", list(FAMILY_SPECS))
    @pytest.mark.parametrize("members,chain,p", [c[1:] for c in FAMILY_CASES],
                             ids=[c[0] for c in FAMILY_CASES])
    def test_family_equals_each_member(self, members, chain, p, scheme):
        q = FAMILY_SPECS[scheme]
        got = integrate_family(members, chain, q, p)
        assert got == [integrate_chain(ig, chain, q, p) for ig in members]
        if scheme == "deterministic" and members[0].kind == "callable":
            assert got == [mesh_chain_value(ig, chain, q) for ig in members]
        elif scheme == "deterministic":
            # the sector rule of a family against the per-sector oracle
            n = _oracle_nodes(chain.k1 + chain.k2)
            small = integrate_family(members, chain, QuadSpec(nodes_per_axis=n), p)
            for ig, (val, _) in zip(members, small):
                want = sum(coeff * brute_domain_value(ig, merged_order(M, chain.k1, chain.k2), n,
                                                      members)
                           for M, coeff in chain.terms)
                assert val == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_domain_returns_one_pair_per_member(self):
        members, chain, p = FAMILY_CASES[2][1:]
        M, q = chain.terms[0][0], QuadSpec(nodes_per_axis=12)
        got = integrate_domain(members[0], M, q, p, more=members[1:])
        assert len(got) == len(members)
        assert got == [integrate_domain(ig, M, q, p)[0] for ig in members]

    @pytest.mark.parametrize("scheme", list(FAMILY_SPECS))
    def test_mixed_family_rejected(self, scheme):
        q = FAMILY_SPECS[scheme]
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        chain = gamma_chain(2, 1, p.gamma)
        poles = [assembled_integrand("J", p, indices=(1, 0, 0)),
                 assembled_integrand("J", p, indices=(0, 1, 0))]
        assert poles[0].pole_count != poles[1].pole_count
        shifted = [poles[0], assembled_integrand("J", p.with_(alpha=1.6), indices=(1, 0, 0))]
        black_box = [Integrand(_monomial([1, 0], [2]), 2, 1, "01", 0, 1.0, 0.0, 1.0, 1.0,
                               kind="callable"),
                     Integrand(None, 2, 1, "01", 0, 1.0, 0.0, 1.0, 1.0)]
        for members in (poles, shifted, black_box):
            with pytest.raises(ValueError, match="differ in more than their weight"):
                integrate_family(members, chain, q, p)
            with pytest.raises(ValueError, match="differ in more than their weight"):
                integrate_domain(members[0], chain.terms[0][0], q, p, more=members[1:])


class TestTensorRule:
    """Black boxes: one Gauss-Jacobi rule builder and the sector rule's
    levels on the chain frame."""

    @pytest.mark.parametrize("n", [1, 2, 6, 24])
    def test_rules_integrate_monomial_moments(self, n):
        # an n-node Gauss rule is exact for degree 2n - 1 against its weight:
        # int y^(E+j) dy = 1 / (E+j+1), j < 2n, to rounding, near y = 0 and
        # at exponents near 300
        E = [0.3, -0.5, -0.95, 2.0, 0.0, 1.5, 3.0, 299.5]
        rules = _jacobi_rules(n, E)
        for e in E:
            ly, w = rules[e]
            for j in range(2 * n):
                got = mp.fsum(mp.mpf(wi) * mp.exp(j * mp.mpf(lyi)) for wi, lyi in zip(w, ly))
                assert abs(got * (e + j + 1) - 1) < 1e-12, (e, j)

    @pytest.mark.parametrize("n", [1, 2, 12, 14, 64])
    def test_one_sided_rules_are_unchanged(self, monkeypatch, n):
        # the rules, asked alone or in one batch with others, are bit for
        # bit the one-sided builder's, so no sector rule moves
        monkeypatch.setattr(quadrature, "_RULES", {})
        E = [0.0, 0.5, 1.0, 3.0, -0.9, 2.75, 150.0, 299.7]
        want = one_sided_jacobi_rules(n, E)
        alone = _jacobi_rules(n, E)
        quadrature._RULES.clear()
        mixed = _jacobi_rules(n, [e + 0.4 for e in E] + E)
        for e in E:
            for ly, w in (alone[e], mixed[e]):
                assert np.array_equal(ly, want[e][0]) and np.array_equal(w, want[e][1])

    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 1), (3, 1), (2, 2), (4, 0)])
    def test_monomials_exact_on_every_domain(self, k1, k2):
        # degree <= 3 per coordinate is degree <= 3K per ratio: the default
        # levels, from 12 nodes on, are exact, and the bar is rounding
        rng = np.random.default_rng(100 + 10 * k1 + k2)
        p = ParamSet(k1=k1, k2=k2)
        for M in enumerate_maps(k1, k2):
            order = merged_order(M, k1, k2)
            degs = [([int(d) for d in rng.integers(0, 4, size=k1)],
                     [int(d) for d in rng.integers(0, 4, size=k2)]) for _ in range(3)]
            members = [Integrand(_monomial(dt, ds), k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0,
                                 kind="callable") for dt, ds in degs]
            got = integrate_domain(members[0], M, QuadSpec(), p, more=members[1:])
            for (dt, ds), (val, err) in zip(degs, got):
                want = float(domain_monomial_integral(order, dt, ds))
                assert abs(val - want) <= 1e-13 * want and err <= 1e-13 * want

    def test_levels_refine_until_the_estimate_certifies(self):
        # 1 / (1.08 - t1 t2) has a pole near the corner: the levels go on
        # from the sector rule's start until the estimate certifies
        def near_pole(t, s):
            t = np.atleast_2d(t)
            return 1.0 / (1.08 - t[:, 0] * t[:, 1])

        ig = Integrand(near_pole, 2, 0, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable")
        order, aw = merged_order(EMPTY_MAP, 2, 0), facet_exponents(ig, EMPTY_MAP)
        [(val, err)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(), ParamSet(k1=2, k2=0))
        levels = {n: _tensor_level([ig], order, aw, n)[0] for n in range(13, 40)}
        n = next(n for n in levels if levels[n] == val)
        assert err == abs(levels[n] - levels[n - 1]) <= quadrature.SECTOR_RTOL * abs(val)
        for m in range(QuadSpec().nodes_for(2), n):
            assert abs(levels[m] - levels[m - 1]) > quadrature.SECTOR_RTOL * abs(levels[m])
        # an explicit node count fixes the pair
        [(val, err)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(nodes_per_axis=8),
                                        ParamSet(k1=2, k2=0))
        assert val == _tensor_level([ig], order, aw, 8)[0]
        assert err == abs(val - _tensor_level([ig], order, aw, 7)[0])


CATALAN = {2: 2, 3: 5, 4: 14, 5: 42}


class TestSectorRule:
    """The sector rule of described integrands: its sectors, levels and bars."""

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_sectors_partition_the_simplex(self, N):
        parents = [tree.parent for tree in _sector_table(N).trees]
        assert len(set(parents)) == len(parents) == CATALAN[N]
        assert sorted(parents) == heap_trees(N)
        # a point lies in exactly one sector: its Cartesian tree's
        for g in np.random.default_rng(N).dirichlet(np.ones(N), size=200):
            inside = [all(par[v] == -1 or g[v] <= g[par[v]] for v in range(N)) for par in parents]
            assert sum(inside) == 1 and parents[inside.index(True)] == cartesian_tree(g)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_sector_volumes_add_up_to_the_ordered_chamber(self, K):
        # every exponent 0: the sectors integrate 1 over 1 > c_0 > ... > 0
        p = ParamSet(k1=K, k2=0, alpha=1.0, beta1=1.0, gamma=0.0)
        [(val, err)] = integrate_domain(assembled_integrand("selb", p), EMPTY_MAP, QuadSpec(), p)
        want = 1.0 / math.factorial(K)
        assert abs(val - want) <= err + 1e-15 * want
        assert val == pytest.approx(want, rel=1e-10)

    def test_a_divergent_sector_raises(self):
        # at gamma = -1/k four coinciding points diverge; every facet
        # exponent stays above -1, one sector's reaches it
        p = ParamSet(k1=4, k2=0, alpha=1.2, beta1=2.2, gamma=-0.25)
        ig = assembled_integrand("selb", p)
        assert min(facet_exponents(ig, EMPTY_MAP).w0) > -1.0
        with pytest.raises(DomainError, match="sector exponent"):
            integrate_domain(ig, EMPTY_MAP, QuadSpec(), p)
        # s and t meeting 1 diverge when beta1 + beta2 - gamma <= 1
        p = ParamSet(k1=1, k2=1, alpha=1.0, beta1=0.3, beta2=0.4, gamma=-0.1)
        with pytest.raises(DomainError, match="sector exponent"):
            integrate_chain(assembled_integrand("selb3", p), gamma_chain(1, 1, p.gamma),
                            QuadSpec(), p)

    def test_explicit_nodes_fix_the_pair(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand("selb3", p)
        for M in enumerate_maps(2, 1):
            order = merged_order(M, 2, 1)
            [(val, err)] = integrate_domain(ig, M, QuadSpec(nodes_per_axis=8), p)
            assert val == _level_value(ig, order, 8)
            assert err == abs(val - _level_value(ig, order, 7))

    def test_levels_refine_until_the_estimate_certifies(self):
        p = ParamSet(k1=3, k2=0, alpha=1.2, beta1=2.2, gamma=-0.25)
        ig = assembled_integrand("selb", p)
        order = merged_order(EMPTY_MAP, 3, 0)
        [(val, err)] = integrate_domain(ig, EMPTY_MAP, QuadSpec(), p)
        levels = {n: _level_value(ig, order, n) for n in range(12, 22)}
        n = next(n for n in levels if levels[n] == val)
        assert err == abs(levels[n] - levels[n - 1]) <= quadrature.SECTOR_RTOL * abs(val)
        # every level before it missed the certificate
        for m in range(QuadSpec().nodes_for(3), n):
            assert abs(levels[m] - levels[m - 1]) > quadrature.SECTOR_RTOL * abs(levels[m])

    def test_family_members_keep_their_own_level(self):
        # here the moments certify at different levels; each keeps the
        # pair a run on its own gives
        p = ParamSet(k1=3, k2=0, alpha=1.99, beta1=0.76, gamma=-0.15)
        members = [assembled_integrand("aomoto", p, indices=ell) for ell in range(4)]
        chain = gamma_chain(3, 0, p.gamma)
        got = integrate_family(members, chain, QuadSpec(), p)
        assert got == [integrate_chain(ig, chain, QuadSpec(), p) for ig in members]
        order = merged_order(EMPTY_MAP, 3, 0)
        at = [next(n for n in range(13, 20) if _level_value(ig, order, n) == val)
              for ig, (val, _) in zip(members, got)]
        assert len(set(at)) > 1

    def test_rule_cache_over_its_cap_serves_a_partly_cached_request(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "_RULES_CAP", 2)
        fresh = {e: (ly.copy(), w.copy()) for e, (ly, w) in _jacobi_rules(6, [0.5, 1.0]).items()}
        _jacobi_rules(6, [2.0, 3.0])  # the cache now holds more than its cap
        got = _jacobi_rules(6, [0.5, 1.0, 4.0])  # partly cached
        assert set(got) == {0.5, 1.0, 4.0}
        for e in (0.5, 1.0):
            assert np.array_equal(got[e][0], fresh[e][0]) and np.array_equal(got[e][1], fresh[e][1])
        assert len(quadrature._RULES) <= 3

    def test_deterministic_domain_errors_add_linearly(self):
        p = ParamSet(k1=2, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.15)
        ig = assembled_integrand("selb3", p)
        chain = gamma_chain(2, 1, p.gamma)
        assert len(chain.terms) == 2
        parts = [(coeff, *integrate_domain(ig, M, QuadSpec(), p)[0]) for M, coeff in chain.terms]
        val, err = integrate_chain(ig, chain, QuadSpec(), p)
        assert val == sum(c * v for c, v, _ in parts)
        assert err == sum(abs(c) * e for c, _, e in parts)
        # Monte Carlo domains are independent draws: their errors add in quadrature
        q = QuadSpec("monte_carlo", sample_count=20_000, seed=4)
        parts = [(coeff, *integrate_domain(ig, M, QuadSpec("monte_carlo", sample_count=20_000,
                                                           seed=4 + 104729 * i), p)[0])
                 for i, (M, coeff) in enumerate(chain.terms)]
        val, err = integrate_chain(ig, chain, q, p)
        assert err == pytest.approx(math.sqrt(sum((c * e) ** 2 for c, _, e in parts)), rel=1e-15)


# seeded points of the regions the sector rule was scanned over: alpha,
# beta in [0.7, 2.2] and gamma in [-0.28, -0.05] unless a shape says else
REGION_SHAPES = [("selb3", 2, 2, {}), ("selb30", 2, 2, {}), ("selb", 3, 0, {}),
                 ("exp", 4, 0, {}), ("exp3", 2, 2, {}),
                 ("selb3", 2, 1, {"gamma": (-0.45, -0.05)}),
                 ("selb3", 1, 1, {"beta": (0.5, 2.2)})]


def _region_records(which, k1, k2, ranges, seed, count):
    """Records of ``which`` at ``count`` seeded points of its region;
    points outside the identity's validity region are redrawn."""
    from selberg3.errors import InvalidParamsError
    from selberg3.identities import REGISTRY, run_identity

    rng = np.random.default_rng(seed)
    lo_b, hi_b = ranges.get("beta", (0.7, 2.2))
    lo_g, hi_g = ranges.get("gamma", (-0.28, -0.05))
    while count:
        p = ParamSet(k1=k1, k2=k2, alpha=rng.uniform(0.7, 2.2), beta1=rng.uniform(lo_b, hi_b),
                     beta2=rng.uniform(lo_b, hi_b), gamma=rng.uniform(lo_g, hi_g))
        try:
            REGISTRY[which].validate(p)
        except InvalidParamsError:
            continue
        yield run_identity(which, p)
        count -= 1


# the rule-dimension-4 shapes, and exp3 (2, 2), rule dimension 3 on the half-line
BAR_SHAPES = [("selb3", 2, 2), ("selb30", 2, 2), ("exp3", 2, 2), ("selb", 4, 0)]


class TestSectorRegions:
    @pytest.mark.parametrize("which,k1,k2,ranges", REGION_SHAPES,
                             ids=[f"{w}-{k1}{k2}" + "".join(f"-{k}" for k in r)
                                  for w, k1, k2, r in REGION_SHAPES])
    def test_passes_with_an_honest_bar(self, which, k1, k2, ranges):
        for rec in _region_records(which, k1, k2, ranges, 1400 + 10 * k1 + k2, 8):
            assert rec.passed and rec.note == "deterministic", rec
            assert rec.rel_dev <= 3.0 * rec.lhs_err / abs(rec.rhs) + 1e-13, rec

    @pytest.mark.parametrize("which,k1,k2", BAR_SHAPES,
                             ids=[f"{w}-{k1}{k2}" for w, k1, k2 in BAR_SHAPES])
    def test_the_bar_bounds_the_deviation(self, which, k1, k2):
        # the levels step one node, so the bar |v(n) - v(n-1)| is about the
        # deviation at n - 1, which bounds the one at n where the rule
        # converges geometrically; the largest deviation over bar measured
        # at 12 points of each shape is 0.36, and rounding is forgiven
        for rec in _region_records(which, k1, k2, {}, 2500 + 10 * k1 + k2, 5):
            assert rec.passed and rec.note == "deterministic", rec
            assert abs(rec.lhs - rec.rhs) <= rec.lhs_err + 1e-13 * abs(rec.rhs), rec


class TestFacetExponents:
    def test_selberg_table(self):
        p = ParamSet(k1=2, k2=0, alpha=1.5, beta1=1.2, gamma=-0.2)
        ig = assembled_integrand("selb", p)
        aw = facet_exponents(ig, EMPTY_MAP)
        # full collapse: 2(a-1) + 2g + 1; inner collapse: a-1
        assert aw.w0[0] == pytest.approx(2 * 0.5 + 2 * (-0.2) + 1.0)
        assert aw.w0[1] == pytest.approx(0.5)
        assert aw.w1[0] == pytest.approx(0.2)       # (1-t)^{beta-1}
        assert aw.w1[1] == pytest.approx(-0.4)      # coincidence 2*gamma

    def test_pole_lowers_mixed_facet(self):
        p = ParamSet(k1=1, k2=1, alpha=1.5, beta1=1.2, beta2=1.4, gamma=-0.2)
        with_pole = facet_exponents(assembled_integrand("selb3", p), OrderMap((1,)))
        without = facet_exponents(assembled_integrand("selb30", p), OrderMap((1,)))
        assert with_pole.w1[1] == pytest.approx(0.2 - 1.0)
        assert without.w1[1] == pytest.approx(0.2)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_derived_exponents_match_the_cluster_counts(self, K):
        # every kind on every domain of every shape with k1 + k2 = K, at
        # seeded points; J and Jt at every admissible triple and the moments
        # at three indices up to K = 6; beyond it, where a description takes
        # up to 40,320 permutations, one index and one seeded triple of J
        # (even k2) or Jt (odd k2) per shape
        rng = np.random.default_rng(700 + K)
        for k2 in range(K // 2 + 1):
            k1 = K - k2
            p = ParamSet(k1=k1, k2=k2, alpha=rng.uniform(0.5, 2.5), beta1=rng.uniform(0.5, 2.5),
                         beta2=rng.uniform(0.5, 2.5), gamma=rng.uniform(-0.4, 0.4))
            igs = [assembled_integrand(w, p) for w in ("selb3", "selb30", "exp3")]
            igs.append(Integrand(_poly, k1, k2, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable"))
            if k2 == 0:
                igs += [assembled_integrand(w, p) for w in ("selb", "exp")]
                ells = sorted({0, k1 // 2, k1}) if K <= 6 else [int(rng.integers(k1 + 1))]
                igs += [assembled_integrand("aomoto", p, indices=ell) for ell in ells]
            triples = [(l1, l2, m) for l1 in range(k1 + 1) for l2 in range(k2 + 1)
                       for m in range(min(l1, l2) + 1) if is_admissible(l1, l2, m, k1, k2)]
            kinds = ("J", "Jt") if K <= 6 else (("J", "Jt")[k2 % 2],)
            if K > 6:
                triples = [triples[int(rng.integers(len(triples)))]]
            igs += [assembled_integrand(w, p, indices=t) for w in kinds for t in triples]
            for ig in igs:
                for M in enumerate_maps(k1, k2):
                    aw = facet_exponents(ig, M)
                    w0, w1 = cluster_facet_exponents(ig, M)
                    assert np.allclose(aw.w0, w0, rtol=0.0, atol=4e-15), (ig, M)
                    assert [w is None for w in aw.w1] == [w is None for w in w1], (ig, M)
                    assert np.allclose([w or 0.0 for w in aw.w1], [w or 0.0 for w in w1],
                                       rtol=0.0, atol=4e-15), (ig, M)

    @pytest.mark.parametrize("scheme", ["deterministic", "monte_carlo"])
    @pytest.mark.parametrize("field", [{"alpha": 1.3}, {"beta1": 1.7}])
    def test_black_box_with_a_power_product_rejected(self, scheme, field):
        # a black box's rule is the chain Jacobian's: an endpoint
        # singularity in its fields would be integrated silently
        ig = replace(Integrand(_poly, 2, 1, "01", 0, 1.0, 0.0, 1.0, 1.0, kind="callable"),
                     **field)
        with pytest.raises(DomainError, match="no power product"):
            integrate_domain(ig, enumerate_maps(2, 1)[0], QuadSpec(scheme), ParamSet(k1=2, k2=1))

    def test_divergent_exponent_rejected(self):
        p = ParamSet(k1=1, k2=0, alpha=-0.5, beta1=1.0, gamma=-0.1)
        ig = assembled_integrand("selb", p)  # integrand itself accepts alpha
        with pytest.raises(DomainError):
            integrate_domain(ig, EMPTY_MAP, QuadSpec(), p)
