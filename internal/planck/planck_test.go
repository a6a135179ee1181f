package planck

import (
	"strings"
	"testing"

	"tango/internal/algebra"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

// fakeCat is a static catalog with UIS-shaped tables.
type fakeCat map[string]types.Schema

func (c fakeCat) TableSchema(name string) (types.Schema, error) {
	s, ok := c[strings.ToUpper(name)]
	if !ok {
		return types.Schema{}, &noTable{name}
	}
	return s, nil
}

type noTable struct{ name string }

func (e *noTable) Error() string { return "no table " + e.name }

func cat() fakeCat {
	return fakeCat{
		"POSITION": types.NewSchema(
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "Dept", Kind: types.KindString},
			types.Column{Name: "T1", Kind: types.KindDate},
			types.Column{Name: "T2", Kind: types.KindDate},
		),
		"EMPLOYEE": types.NewSchema(
			types.Column{Name: "EmpID", Kind: types.KindInt},
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "T1", Kind: types.KindDate},
			types.Column{Name: "T2", Kind: types.KindDate},
		),
		"FLAT": types.NewSchema( // no time columns
			types.Column{Name: "K", Kind: types.KindInt},
			types.Column{Name: "V", Kind: types.KindInt},
		),
	}
}

func pred(t *testing.T, src string) sqlast.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE " + src)
	if err != nil {
		t.Fatalf("parsing predicate %q: %v", src, err)
	}
	return sel.Where
}

// mustAccept asserts the plan passes Check.
func mustAccept(t *testing.T, name string, plan *algebra.Node) {
	t.Helper()
	if err := Check(plan, cat()); err != nil {
		t.Errorf("%s: valid plan rejected:\n%s\n%v", name, plan, err)
	}
}

// mustReject asserts the plan fails Check with a message containing
// frag.
func mustReject(t *testing.T, name string, plan *algebra.Node, frag string) {
	t.Helper()
	err := Check(plan, cat())
	if err == nil {
		t.Errorf("%s: corrupted plan accepted:\n%s", name, plan)
		return
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("%s: error %q does not mention %q", name, err, frag)
	}
}

func TestAcceptsPaperShapedPlans(t *testing.T) {
	// The initial all-DBMS plan: everything under a single T^M.
	mustAccept(t, "initial",
		algebra.TM(algebra.TAggr(algebra.Scan("POSITION", ""), []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})))

	// TAGGR^M over a DBMS sort shipped through T^M (rule T1's shape).
	mustAccept(t, "taggr-mw",
		algebra.TAggr(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "T1")),
			[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}))

	// TJOIN^M over two sorted transfers (rule T3's shape).
	mustAccept(t, "tjoin-mw",
		algebra.TJoin(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID")),
			algebra.TM(algebra.Sort(algebra.Scan("EMPLOYEE", "E"), "E.PosID")),
			[]string{"P.PosID"}, []string{"E.PosID"}))

	// COALESCE^M fed by a sort on all non-time columns then T1.
	mustAccept(t, "coalesce-mw",
		algebra.Coalesce(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "Dept", "T1"))))

	// A middleware island loaded back into the DBMS through T^D, then
	// rejoined DBMS-side and shipped up (transfer sandwich).
	island := algebra.TD(algebra.DupElim(algebra.TM(algebra.Scan("POSITION", ""))))
	mustAccept(t, "transfer-sandwich",
		algebra.TM(algebra.Select(island, pred(t, "PosID = 1"))))

	// Selection and projection above the transfer, order mapped through
	// renaming.
	mustAccept(t, "select-project-mw",
		algebra.Project(
			algebra.Select(
				algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID")),
				pred(t, "Dept = 'CS'")),
			algebra.ProjCol{Src: "PosID", As: "ID"}, algebra.ProjCol{Src: "Dept"}))
}

func TestRejectsOrderViolations(t *testing.T) {
	// TAGGR^M without the (GroupBy, T1) sort below.
	mustReject(t, "taggr-unsorted",
		algebra.TAggr(
			algebra.TM(algebra.Scan("POSITION", "")),
			[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}),
		"not sorted")

	// A DBMS sort buried under a DBMS selection gives no order promise
	// (the translator emits no subquery ORDER BY), so TAGGR^M must not
	// trust it.
	mustReject(t, "taggr-buried-sort",
		algebra.TAggr(
			algebra.TM(algebra.Select(
				algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "T1"),
				pred(t, "PosID = 1"))),
			[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}),
		"not sorted")

	// Merge join with an unsorted right input.
	mustReject(t, "join-right-unsorted",
		algebra.Join(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID")),
			algebra.TM(algebra.Scan("EMPLOYEE", "E")),
			[]string{"P.PosID"}, []string{"E.PosID"}),
		"right input not sorted")

	// Merge join sorted on the wrong column.
	mustReject(t, "join-wrong-sort",
		algebra.Join(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.Dept")),
			algebra.TM(algebra.Sort(algebra.Scan("EMPLOYEE", "E"), "E.PosID")),
			[]string{"P.PosID"}, []string{"E.PosID"}),
		"left input not sorted")

	// COALESCE^M with T1 missing from the sort.
	mustReject(t, "coalesce-partial-sort",
		algebra.Coalesce(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "Dept"))),
		"too short")

	// COALESCE^M sorted on times before values.
	mustReject(t, "coalesce-wrong-sort",
		algebra.Coalesce(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "T1", "PosID", "Dept"))),
		"non-time columns")

	// A projection that drops the ordering column truncates the order;
	// the join above must notice.
	mustReject(t, "order-lost-in-project",
		algebra.Join(
			algebra.Project(
				algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.Dept", "P.PosID")),
				algebra.ProjCol{Src: "P.PosID"}),
			algebra.TM(algebra.Sort(algebra.Scan("EMPLOYEE", "E"), "E.PosID")),
			[]string{"PosID"}, []string{"E.PosID"}),
		"left input not sorted")

	// A temporal join intersects the periods, so its output is not
	// ordered on the left input's T1.
	mustReject(t, "tjoin-period-order",
		algebra.TAggr(
			algebra.TJoin(
				algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID", "P.T1")),
				algebra.TM(algebra.Sort(algebra.Scan("EMPLOYEE", "E"), "E.PosID")),
				[]string{"P.PosID"}, []string{"E.PosID"}),
			[]string{"P.PosID"}, algebra.Agg{Fn: "COUNT", Col: "P.PosID"}),
		"not sorted")
}

func TestRejectsTransferViolations(t *testing.T) {
	// T^M over an already middleware-resident input.
	mustReject(t, "tm-over-mw",
		algebra.TM(algebra.TM(algebra.Scan("POSITION", ""))),
		"T^M over a middleware-resident input")

	// T^D over a DBMS-resident input.
	mustReject(t, "td-over-dbms",
		algebra.TM(algebra.Select(
			algebra.TD(algebra.Scan("POSITION", "")),
			pred(t, "PosID = 1"))),
		"T^D over a DBMS-resident input")

	// Join inputs on opposite sides of the boundary.
	mustReject(t, "join-straddles",
		algebra.Join(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID")),
			algebra.Sort(algebra.Scan("EMPLOYEE", "E"), "E.PosID"),
			[]string{"P.PosID"}, []string{"E.PosID"}),
		"different locations")

	// Root left in the DBMS (no delivering T^M).
	mustReject(t, "dbms-root",
		algebra.Sort(algebra.Scan("POSITION", ""), "PosID"),
		"root executes in the DBMS")
}

func TestRejectsSchemaViolations(t *testing.T) {
	// Predicate over a column that does not exist.
	mustReject(t, "bad-pred-column",
		algebra.Select(algebra.TM(algebra.Scan("POSITION", "")), pred(t, "Salary > 10")),
		`references "Salary"`)

	// Sort key that does not exist.
	mustReject(t, "bad-sort-key",
		algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "Nope")),
		`sort key "Nope"`)

	// Projection of a column that does not exist.
	mustReject(t, "bad-project-src",
		algebra.Project(algebra.TM(algebra.Scan("POSITION", "")), algebra.ProjCol{Src: "Nope"}),
		`projects "Nope"`)

	// Equi column missing on the right side.
	mustReject(t, "bad-join-column",
		algebra.Join(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID")),
			algebra.TM(algebra.Sort(algebra.Scan("FLAT", "F"), "F.K")),
			[]string{"P.PosID"}, []string{"F.PosID"}),
		"right equi column")

	// Temporal join over a relation without T1/T2.
	mustReject(t, "tjoin-no-time",
		algebra.TJoin(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", "P"), "P.PosID")),
			algebra.TM(algebra.Sort(algebra.Scan("FLAT", "F"), "F.K")),
			[]string{"P.PosID"}, []string{"F.K"}),
		"no T1/T2")

	// Grouping column missing.
	mustReject(t, "bad-groupby",
		algebra.TAggr(
			algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "Nope", "T1")),
			[]string{"Nope"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}),
		"sort key") // the corrupt column already fails at the sort below
}

func TestInferProps(t *testing.T) {
	c := cat()

	// TAGGR^M output: dup-free, ordered on (group, T1), schema is
	// groups + period + aggregates.
	p, err := Infer(algebra.TAggr(
		algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "T1")),
		[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}), c)
	if err != nil {
		t.Fatal(err)
	}
	if !p.DupFree {
		t.Error("TAGGR^M output not marked duplicate-free")
	}
	if len(p.Order) != 2 || !strings.EqualFold(p.Order[0], "PosID") || !strings.EqualFold(p.Order[1], "T1") {
		t.Errorf("TAGGR^M order = %v, want [PosID T1]", p.Order)
	}
	want := []string{"PosID", "T1", "T2", "COUNTofPosID"}
	if got := p.Schema.Names(); len(got) != len(want) {
		t.Fatalf("TAGGR^M schema = %v, want %v", got, want)
	}
	if p.Loc != algebra.LocMW {
		t.Errorf("TAGGR^M location = %v, want MW", p.Loc)
	}

	// T^D destroys order and keeps dup-freeness.
	p, err = Infer(algebra.TD(algebra.DupElim(algebra.TM(
		algebra.Sort(algebra.Scan("POSITION", ""), "PosID")))), c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Order != nil {
		t.Errorf("T^D output order = %v, want none", p.Order)
	}
	if !p.DupFree {
		t.Error("T^D lost the dup-free annotation")
	}
	if p.Loc != algebra.LocDBMS {
		t.Errorf("T^D location = %v, want DBMS", p.Loc)
	}

	// Projection renames the order columns.
	p, err = Infer(algebra.Project(
		algebra.TM(algebra.Sort(algebra.Scan("POSITION", ""), "PosID")),
		algebra.ProjCol{Src: "PosID", As: "ID"}, algebra.ProjCol{Src: "Dept"}), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Order) != 1 || p.Order[0] != "ID" {
		t.Errorf("projected order = %v, want [ID]", p.Order)
	}
}

func TestCheckIterator(t *testing.T) {
	c := cat()
	plan := algebra.TM(algebra.Scan("POSITION", ""))
	good, err := plan.Schema(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckIterator(plan, c, good); err != nil {
		t.Errorf("matching iterator schema rejected: %v", err)
	}
	bad := types.NewSchema(types.Column{Name: "X", Kind: types.KindInt})
	if err := CheckIterator(plan, c, bad); err == nil {
		t.Error("diverging iterator schema accepted")
	}
}
