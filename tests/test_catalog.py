"""Catalog constructors and the classification-table reproduction."""

import pytest

from conftest import op, report_for
from latcop import catalog as catalog_module
from latcop.algebra import TABLE_ENTRY_BUDGET, FiniteAlgebra, direct_product, embeds, hom_enumerate
from latcop.algfile import export_entry, parse_algebra_file
from latcop.catalog import _CONSTRUCTORS, _LATTICE_SIG, UNVERIFIED_TABLE_ROWS, make, make_id, table1_suite
from latcop.distlat import d_reduct
from latcop.errors import CapExceeded, LatcopError
from latcop.piggyback import carrier_from_filter, sep_condition


class TestConstructors:
    def test_heyting_chain_implication(self):
        c3 = make("heyting_chain", 3).algebra
        assert op(c3, "imp", (1, 0)) == 0
        assert op(c3, "imp", (0, 1)) == 2
        assert c3.element_names == ("0", "d", "1")

    def test_pre_moisil_L0_tables(self):
        e = make("pre_moisil_L0", 2).algebra
        assert e.size == 4
        # e_1(j, k) is the top (1,1) exactly when k >= 1
        top = 3
        for j in range(2):
            for k in range(2):
                val = op(e, "e1", (j * 2 + k,))
                assert val == (top if k >= 1 else 0)

    def test_mv_chain_1_is_boolean_like(self):
        entry = make("mv_chain", 1)
        lat = d_reduct(entry.algebra, entry.spec)
        assert lat.size == 2 and lat.bot == 0 and lat.top == 1

    def test_mv_chain_operations(self):
        l2 = make("mv_chain", 2).algebra
        assert op(l2, "oplus", (1, 1)) == 2
        assert op(l2, "neg", (0,)) == 2

    def test_moisil_tables(self):
        m3 = make("moisil_L", 3).algebra
        assert m3.table("d1") == (0, 0, 2)
        assert m3.table("d2") == (0, 2, 2)
        assert m3.table("dbar1") == (2, 2, 0)

    def test_pseudo_b_star(self):
        b2 = make("pseudo_b", 2).algebra
        # star is the largest y with x & y = bottom
        for x in range(b2.size):
            star = op(b2, "star", (x,))
            assert op(b2, "meet", (x, star)) == 0
            for y in range(b2.size):
                if op(b2, "meet", (x, y)) == 0:
                    assert op(b2, "join", (y, star)) == star  # y <= star

    def test_invalid_parameters(self):
        with pytest.raises(LatcopError):
            make("heyting_chain", 1)
        with pytest.raises(LatcopError):
            make("mv_chain", 0)
        with pytest.raises(LatcopError):
            make("nope")

    def test_make_id_forms(self):
        assert make_id("kleene3").key == "kleene3"
        assert make_id("mv_chain(3)").key == "mv_chain(3)"
        assert make_id("mv_chain:3").key == "mv_chain(3)"
        assert make_id(" mv_chain( 3 ) ").key == make_id("mv_chain: 3").key == "mv_chain(3)"
        for bad in ("mv_chain(3", "mv_chain:3)", "mv_chain:(3)", "mv_chain()", "mv_chain:", "mv_chain 3"):
            with pytest.raises(LatcopError, match="cannot parse catalog id"):
                make_id(bad)

    @pytest.mark.parametrize("constructor", sorted(k for k, (_, p) in _CONSTRUCTORS.items() if p))
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_budget_check_counts_the_tables(self, monkeypatch, constructor, n):
        # the entries checked before building are the entries built
        checked = []
        real = catalog_module._check_tables

        def recorded(name, size, *counts):
            checked.append(sum(c * size**k for k, c in enumerate(counts)))
            real(name, size, *counts)

        monkeypatch.setattr(catalog_module, "_check_tables", recorded)
        alg = _CONSTRUCTORS[constructor][0](n).algebra
        assert checked == [sum(len(tab) for tab in alg.tables)]

    @pytest.mark.parametrize(
        "constructor, param, required",
        [
            ("mv_chain", 99999, 100000**2 + 100000 + 1),
            ("pseudo_b", 12, 2 * 4097**2 + 4097 + 2),
            ("pseudo_b", 99999999, 2 * (2**24 + 1) ** 2 + 2**24 + 3),  # a lower bound
            pytest.param("pseudo_b", 10**5000, 2 * (2**24 + 1) ** 2 + 2**24 + 3, id="pseudo_b-10**5000"),
            ("moisil_L", 99999999, 4 * 99999999**2 - 2 * 99999999 + 2),
            ("heyting_chain", 2000, 3 * 2000**2 + 2),
        ],
    )
    def test_over_budget_before_building(self, constructor, param, required):
        with pytest.raises(CapExceeded) as exc:
            make(constructor, param)
        assert exc.value.stage == "catalog tables"
        assert exc.value.budget == TABLE_ENTRY_BUDGET
        assert exc.value.required == required
        assert f"budget is {TABLE_ENTRY_BUDGET}" in str(exc.value)

    def test_parameter_past_the_digit_limit_is_an_input_error(self):
        with pytest.raises(LatcopError) as exc:
            make_id("pseudo_b:" + "9" * 4401)
        assert not isinstance(exc.value, CapExceeded)
        assert str(exc.value) == "catalog id parameter of 4401 digits is too long"

    def test_every_entry_reduct_validates(self):
        for entry, _ in table1_suite():
            d_reduct(entry.algebra, entry.spec)  # raises on failure
            if entry.carriers:
                for filt in entry.carriers:
                    carrier_from_filter(entry.algebra, entry.spec, filt)


class TestTable1:
    def test_suite_is_the_table(self):
        rows = {e.key: exp for e, exp in table1_suite()}
        assert rows["demorgan4"] == (True, True)
        assert rows["kleene3"] == (False, True)
        assert rows["pseudo_b(1)"] == (True, True)
        assert rows["pseudo_b(2)"] == (True, False)
        assert rows["heyting_chain(4)"] == (True, False)
        assert rows["mv_chain(4)"] == (False, True)
        assert rows["mv_chain(6)"] == (False, False)
        assert rows["moisil_M(3)"] == (False, True)
        assert rows["pre_moisil_M0(2)"] == (True, True)

    def test_unverified_rows_documented(self):
        assert any("D_pq" in r for r in UNVERIFIED_TABLE_ROWS)
        assert any("Heyting" in r for r in UNVERIFIED_TABLE_ROWS)

    def test_full_reproduction(self):
        for entry, expected in table1_suite():
            rep = report_for(entry.constructor, *entry.params)
            assert (rep.verdict_E, rep.verdict_S) == expected, entry.key


class TestMVEmbeddings:
    def test_divisibility_rule(self):
        for m in range(1, 7):
            for n in range(1, 7):
                a = make("mv_chain", m).algebra
                b = make("mv_chain", n).algebra
                assert (embeds(a, b) is not None) == (n % m == 0), (m, n)


class TestPreMoisilWitnesses:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pre_moisil_sep_with_first_projection(self, n):
        entry = make("pre_moisil_L0", n)
        w = carrier_from_filter(entry.algebra, entry.spec, entry.carriers[0])
        assert sep_condition([entry.algebra], [w]).holds

    def test_pre_moisil_M0_sep(self):
        entry = make("pre_moisil_M0", 2)
        w = carrier_from_filter(entry.algebra, entry.spec, entry.carriers[0])
        assert sep_condition([entry.algebra], [w]).holds

    @pytest.mark.parametrize("n", [2, 3])
    def test_separating_homs_exist(self, n):
        # the level-threshold maps are endomorphisms, and together with the
        # first-projection carrier they separate every pair
        entry = make("pre_moisil_L0", n)
        endos = {h.map for h in hom_enumerate(entry.algebra, entry.algebra)}
        for i in range(1, n):
            eta = tuple(
                (0 if k < i else 1) * n + k
                for j in range(2)
                for k in range(n)
            )
            assert eta in endos, f"eta_{i}"
        assert tuple(range(2 * n)) in endos


class TestBitLattices:
    """The catalog's bit lattices against direct_product of catalog
    lattices over the lattice signature: direct_product numbers (j, k) as
    j * n + k with the leftmost factor most significant, as the catalog
    does, and bitwise meet and join do not depend on which bit comes
    first."""

    @staticmethod
    def lattice(key, *params):
        alg = make(key, *params).algebra
        return FiniteAlgebra(alg.name, alg.size, _LATTICE_SIG, tuple(alg.table(s) for s, _ in _LATTICE_SIG.symbols))

    def test_diamond_is_bool2_squared(self):
        b2 = self.lattice("bool2")
        assert self.lattice("demorgan4").tables == direct_product([b2, b2]).tables

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pre_moisil_times_chain(self, n):
        chain = self.lattice("heyting_chain", n)
        for key, bits in (("pre_moisil_L0", "bool2"), ("pre_moisil_M0", "demorgan4")):
            assert self.lattice(key, n).tables == direct_product([self.lattice(bits), chain]).tables, key

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pre_moisil_unaries_are_the_moisil_chains(self, n):
        # a Moisil chain is its pre-Moisil witness over the one-element bit
        # lattice: each unary reads the chain coordinate k of (b, k) alone,
        # and neg is demorgan4's neg times the chain's
        neg = make("demorgan4").algebra.table("neg")
        for key, chain_key, prefix in (("pre_moisil_L0", "moisil_L", "e"), ("pre_moisil_M0", "moisil_M", "f")):
            alg, chain = make(key, n).algebra, make(chain_key, n).algebra
            top = alg.size - 1
            unaries = [s for s, arity in chain.signature.symbols if arity == 1]
            for sym in unaries:
                ours = sym.replace("d", prefix, 1) if sym != "neg" else sym
                for x in range(alg.size):
                    b, k = divmod(x, n)
                    if sym == "neg":
                        want = neg[b] * n + chain.table(sym)[k]
                    else:
                        want = top if chain.table(sym)[k] else 0
                    assert alg.table(ours)[x] == want, (key, ours, x)
            assert len(unaries) == sum(arity == 1 for _, arity in alg.signature.symbols)


class TestExportRoundTrip:
    @pytest.mark.parametrize(
        "key,params",
        [("demorgan4", ()), ("kleene3", ()), ("mv_chain", (2,)),
         ("pre_moisil_L0", (2,)), ("pseudo_b", (2,))],
    )
    def test_round_trip(self, key, params):
        entry = make(key, *params)
        text = export_entry(entry)
        parsed = parse_algebra_file(text)
        assert len(parsed.algebras) == 1
        pa = parsed.algebras[0]
        assert pa.algebra == entry.algebra
        assert pa.reduct == entry.spec
        assert pa.carriers == (entry.carriers or ())
