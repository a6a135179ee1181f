package sqlparser

import (
	"strings"
	"testing"

	"tango/internal/sqlast"
	"tango/internal/types"
)

func mustSelect(t *testing.T, src string) *sqlast.SelectStmt {
	t.Helper()
	s, err := ParseSelect(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

func TestSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT PosID, T1 FROM POSITION WHERE PosID = 5 ORDER BY T1 DESC")
	if len(s.Items) != 2 || len(s.From) != 1 || s.Where == nil || len(s.OrderBy) != 1 {
		t.Fatalf("shape: %+v", s)
	}
	if !s.OrderBy[0].Desc {
		t.Error("DESC lost")
	}
	tn := s.From[0].(sqlast.TableName)
	if tn.Name != "POSITION" {
		t.Errorf("table = %q", tn.Name)
	}
}

func TestAliases(t *testing.T) {
	s := mustSelect(t, "SELECT A.PosID AS P, B.EmpName Name FROM TMP A, POSITION AS B")
	if s.Items[0].Alias != "P" || s.Items[1].Alias != "Name" {
		t.Errorf("aliases: %+v", s.Items)
	}
	if s.From[0].(sqlast.TableName).Alias != "A" || s.From[1].(sqlast.TableName).Alias != "B" {
		t.Errorf("from aliases: %+v", s.From)
	}
	cr := s.Items[0].Expr.(sqlast.ColumnRef)
	if cr.Table != "A" || cr.Name != "PosID" {
		t.Errorf("colref: %+v", cr)
	}
}

func TestPaperTransferQuery(t *testing.T) {
	// The execution-ready SQL from Figure 5 of the paper.
	src := `SELECT A.PosID AS PosID, EmpName,
	        GREATEST(A.T1,B.T1) AS T1,
	        LEAST(A.T2,B.T2) AS T2, COUNTofPosID
	        FROM TMP A, POSITION B
	        WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1
	        ORDER BY PosID`
	s := mustSelect(t, src)
	if len(s.Items) != 5 {
		t.Fatalf("items: %d", len(s.Items))
	}
	g := s.Items[2].Expr.(sqlast.FuncCall)
	if g.Name != "GREATEST" || len(g.Args) != 2 {
		t.Errorf("GREATEST: %+v", g)
	}
	conj := sqlast.Conjuncts(s.Where)
	if len(conj) != 3 {
		t.Errorf("conjuncts: %d", len(conj))
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := mustSelect(t, "SELECT 1 WHERE a = 1 OR b = 2 AND c = 3")
	or := s.Where.(sqlast.BinaryExpr)
	if or.Op != sqlast.OpOr {
		t.Fatalf("top op = %v", or.Op)
	}
	and := or.Right.(sqlast.BinaryExpr)
	if and.Op != sqlast.OpAnd {
		t.Fatalf("right op = %v", and.Op)
	}
	s2 := mustSelect(t, "SELECT 1 + 2 * 3")
	add := s2.Items[0].Expr.(sqlast.BinaryExpr)
	if add.Op != sqlast.OpAdd {
		t.Fatalf("arith precedence wrong: %v", s2.Items[0].Expr)
	}
}

func TestDateLiteral(t *testing.T) {
	s := mustSelect(t, "SELECT 1 WHERE T1 < DATE '1997-02-08'")
	cmp := s.Where.(sqlast.BinaryExpr)
	lit := cmp.Right.(sqlast.Literal)
	if lit.Value.Kind() != types.KindDate {
		t.Fatalf("kind = %v", lit.Value.Kind())
	}
	if lit.Value.String() != "1997-02-08" {
		t.Errorf("date = %v", lit.Value)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s := mustSelect(t, "SELECT PosID, COUNT(*), SUM(Pay), COUNT(DISTINCT EmpID) FROM POSITION GROUP BY PosID HAVING COUNT(*) > 2")
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatalf("group shape: %+v", s)
	}
	c := s.Items[1].Expr.(sqlast.FuncCall)
	if c.Name != "COUNT" {
		t.Error("COUNT lost")
	}
	if _, ok := c.Args[0].(sqlast.Star); !ok {
		t.Error("COUNT(*) star lost")
	}
	d := s.Items[3].Expr.(sqlast.FuncCall)
	if !d.Distinct {
		t.Error("DISTINCT lost")
	}
}

func TestDerivedTableAndUnion(t *testing.T) {
	src := `SELECT P.t FROM (SELECT T1 AS t FROM R UNION SELECT T2 AS t FROM R) P WHERE P.t > 3`
	s := mustSelect(t, src)
	d := s.From[0].(sqlast.Derived)
	if d.Alias != "P" {
		t.Fatalf("alias = %q", d.Alias)
	}
	if d.Select.Union == nil || d.Select.UnionAll {
		t.Error("UNION lost or marked ALL")
	}
}

func TestHints(t *testing.T) {
	for src, want := range map[string]sqlast.JoinHint{
		"SELECT /*+ USE_NL */ * FROM A, B":    sqlast.HintNestedLoop,
		"SELECT /*+ USE_MERGE */ * FROM A, B": sqlast.HintMerge,
		"SELECT /*+ USE_HASH */ * FROM A, B":  sqlast.HintHash,
	} {
		if got := mustSelect(t, src).Hint; got != want {
			t.Errorf("%q: hint = %v, want %v", src, got, want)
		}
	}
}

func TestBetweenIsNull(t *testing.T) {
	s := mustSelect(t, "SELECT 1 WHERE x BETWEEN 1 AND 5 AND y IS NOT NULL AND z NOT BETWEEN 2 AND 3")
	conj := sqlast.Conjuncts(s.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if b := conj[0].(sqlast.Between); b.Not {
		t.Error("first BETWEEN should not be negated")
	}
	if n := conj[1].(sqlast.IsNull); !n.Not {
		t.Error("IS NOT NULL lost")
	}
	if b := conj[2].(sqlast.Between); !b.Not {
		t.Error("NOT BETWEEN lost")
	}
}

func TestCreateInsertDropAnalyze(t *testing.T) {
	st, err := Parse("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), Pay FLOAT, T1 DATE, T2 DATE)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*sqlast.CreateTable)
	if len(ct.Columns) != 5 || ct.Columns[1].Kind != types.KindString || ct.Columns[3].Kind != types.KindDate {
		t.Fatalf("create: %+v", ct)
	}

	st, err = Parse("INSERT INTO POSITION VALUES (1, 'Tom', 10.5, DATE '1995-01-01', DATE '1996-01-01'), (2, 'Jane', 9.0, DATE '1995-06-01', DATE '1997-01-01')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*sqlast.Insert)
	if len(ins.Values) != 2 || len(ins.Values[0]) != 5 {
		t.Fatalf("insert: %+v", ins)
	}

	st, err = Parse("CREATE TABLE IF NOT EXISTS TMP17 (K INTEGER)")
	if err != nil {
		t.Fatal(err)
	}
	if ct := st.(*sqlast.CreateTable); !ct.IfNotExists || ct.Name != "TMP17" || ct.String() != "CREATE TABLE IF NOT EXISTS TMP17 (K INTEGER)" {
		t.Fatalf("create if not exists: %+v", ct)
	}

	st, err = Parse("DROP TABLE IF EXISTS TMP17")
	if err != nil {
		t.Fatal(err)
	}
	if d := st.(*sqlast.DropTable); !d.IfExists || d.Name != "TMP17" {
		t.Fatalf("drop: %+v", d)
	}

	st, err = Parse("ANALYZE POSITION HISTOGRAM 20")
	if err != nil {
		t.Fatal(err)
	}
	if a := st.(*sqlast.Analyze); a.HistogramBuckets != 20 {
		t.Fatalf("analyze: %+v", a)
	}
}

func TestInsertSelect(t *testing.T) {
	st, err := Parse("INSERT INTO T2 SELECT * FROM T1 WHERE x > 0")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*sqlast.Insert)
	if ins.Select == nil {
		t.Fatal("INSERT ... SELECT lost")
	}
}

func TestStringEscapes(t *testing.T) {
	s := mustSelect(t, "SELECT 'O''Hara'")
	lit := s.Items[0].Expr.(sqlast.Literal)
	if lit.Value.AsString() != "O'Hara" {
		t.Errorf("string = %q", lit.Value.AsString())
	}
}

func TestRoundTripThroughString(t *testing.T) {
	srcs := []string{
		"SELECT PosID, T1 FROM POSITION WHERE (PosID = 5) ORDER BY T1",
		"SELECT A.PosID AS P FROM TMP A, POSITION B WHERE (A.PosID = B.PosID)",
		"SELECT PosID, COUNT(*) FROM POSITION GROUP BY PosID",
		"SELECT T1 AS t FROM R UNION ALL SELECT T2 AS t FROM R",
		"SELECT * FROM (SELECT PosID FROM POSITION) X WHERE (X.PosID > 2)",
	}
	for _, src := range srcs {
		s1 := mustSelect(t, src)
		s2 := mustSelect(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n%s\nvs\n%s", s1.String(), s2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM X",
		"SELECT * FROM",
		"SELECT * FROM (SELECT 1)",
		"SELECT 'unterminated",
		"CREATE TABLE T (x NOSUCHTYPE)",
		"SELECT * FROM T WHERE",
		"FROB 1",
		"SELECT 1; SELECT 2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestComments(t *testing.T) {
	s := mustSelect(t, "SELECT 1 -- trailing\nFROM T /* inline */ WHERE x = 1")
	if len(s.From) != 1 || s.Where == nil {
		t.Fatalf("comments broke parse: %+v", s)
	}
}

func TestLongUnionChain(t *testing.T) {
	parts := make([]string, 10)
	for i := range parts {
		parts[i] = "SELECT 1 AS x FROM T"
	}
	s := mustSelect(t, strings.Join(parts, " UNION ALL "))
	n := 0
	for cur := s; cur != nil; cur = cur.Union {
		n++
	}
	if n != 10 {
		t.Errorf("union chain = %d", n)
	}
}

func TestLimitParsing(t *testing.T) {
	s := mustSelect(t, "SELECT K FROM T ORDER BY K LIMIT 10")
	if s.Limit != 10 {
		t.Fatalf("limit = %d", s.Limit)
	}
	s2 := mustSelect(t, s.String())
	if s2.Limit != 10 {
		t.Fatalf("limit round trip = %d", s2.Limit)
	}
	if _, err := Parse("SELECT K FROM T LIMIT x"); err == nil {
		t.Error("non-numeric LIMIT should fail")
	}
}
