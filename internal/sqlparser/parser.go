package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tango/internal/sqlast"
	"tango/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon
// is allowed).
func Parse(src string) (sqlast.Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input %q", p.cur().raw)
	}
	return stmt, nil
}

// ParseSelect parses a SELECT statement.
func ParseSelect(src string) (*sqlast.SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlparser: not a SELECT: %T", stmt)
	}
	return sel, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return token{}, p.errorf("expected %q, found %q", text, p.cur().raw)
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparser: %s (at offset %d in %q)",
		fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) statement() (sqlast.Statement, error) {
	switch {
	case p.at(tokIdent, "SELECT"):
		return p.selectStmt()
	case p.at(tokIdent, "CREATE"):
		return p.createStmt()
	case p.at(tokIdent, "DROP"):
		return p.dropTable()
	case p.at(tokIdent, "INSERT"):
		return p.insert()
	case p.at(tokIdent, "ANALYZE"):
		return p.analyze()
	default:
		return nil, p.errorf("unexpected token %q", p.cur().raw)
	}
}

// selectStmt parses a SELECT with optional UNION chain and trailing
// ORDER BY (which binds to the whole union).
func (p *parser) selectStmt() (*sqlast.SelectStmt, error) {
	first, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	cur := first
	for p.accept(tokIdent, "UNION") {
		all := p.accept(tokIdent, "ALL")
		next, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur.UnionAll = all
		cur = next
	}
	if p.accept(tokIdent, "ORDER") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.accept(tokIdent, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokIdent, "ASC")
			}
			first.OrderBy = append(first.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "LIMIT") {
		tok, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", tok.text)
		}
		first.Limit = n
	}
	return first, nil
}

// selectCore parses one SELECT ... [FROM ... WHERE ... GROUP BY ...
// HAVING ...] block without UNION/ORDER BY.
func (p *parser) selectCore() (*sqlast.SelectStmt, error) {
	if _, err := p.expect(tokIdent, "SELECT"); err != nil {
		return nil, err
	}
	s := &sqlast.SelectStmt{}
	if p.at(tokHint, "") {
		switch p.cur().text {
		case "USE_NL":
			s.Hint = sqlast.HintNestedLoop
		case "USE_MERGE":
			s.Hint = sqlast.HintMerge
		case "USE_HASH":
			s.Hint = sqlast.HintHash
		}
		p.pos++
	}
	if p.accept(tokIdent, "DISTINCT") {
		s.Distinct = true
	} else {
		p.accept(tokIdent, "ALL")
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokIdent, "FROM") {
		for {
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tokIdent, "GROUP") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "HAVING") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *parser) selectItem() (sqlast.SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return sqlast.SelectItem{Expr: sqlast.Star{}}, nil
	}
	// tab.* form.
	if p.cur().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		tab := p.cur().raw
		p.pos += 3
		return sqlast.SelectItem{Expr: sqlast.ColumnRef{Table: tab, Name: "*"}}, nil
	}
	e, err := p.expression()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.accept(tokIdent, "AS") {
		t, err := p.expectIdent()
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		item.Alias = t
	} else if p.cur().kind == tokIdent && !isReserved(p.cur().text) {
		item.Alias = p.cur().raw
		p.pos++
	}
	return item, nil
}

func (p *parser) tableRef() (sqlast.TableRef, error) {
	if p.accept(tokSymbol, "(") {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		p.accept(tokIdent, "AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, fmt.Errorf("sqlparser: derived table requires an alias: %w", err)
		}
		return sqlast.Derived{Select: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := sqlast.TableName{Name: name}
	if p.accept(tokIdent, "AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.cur().kind == tokIdent && !isReserved(p.cur().text) {
		ref.Alias = p.cur().raw
		p.pos++
	}
	return ref, nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent || isReserved(p.cur().text) {
		return "", p.errorf("expected identifier, found %q", p.cur().raw)
	}
	name := p.cur().raw
	p.pos++
	return name, nil
}

var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"AND": true, "OR": true, "NOT": true, "AS": true, "ON": true,
	"CREATE": true, "TABLE": true, "DROP": true, "INSERT": true, "INTO": true,
	"VALUES": true, "INDEX": true, "ANALYZE": true, "BETWEEN": true, "IS": true,
	"NULL": true, "ASC": true, "DESC": true, "DATE": true, "EXISTS": true, "LIMIT": true,
	"IF": true, "HISTOGRAM": true, "TRUE": true, "FALSE": true,
}

func isReserved(up string) bool { return reserved[up] }

// --- Expressions (precedence climbing) ---

func (p *parser) expression() (sqlast.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (sqlast.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = sqlast.BinaryExpr{Op: sqlast.OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (sqlast.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = sqlast.BinaryExpr{Op: sqlast.OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (sqlast.Expr, error) {
	if p.accept(tokIdent, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return sqlast.UnaryExpr{Op: "NOT", Operand: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (sqlast.Expr, error) {
	left, err := p.additive()
	if err != nil {
		return nil, err
	}
	// BETWEEN / IS NULL postfix predicates.
	if not := p.atBetween(); not >= 0 {
		if not == 1 {
			p.pos++ // NOT
		}
		p.pos++ // BETWEEN
		lo, err := p.additive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.additive()
		if err != nil {
			return nil, err
		}
		return sqlast.Between{Expr: left, Lo: lo, Hi: hi, Not: not == 1}, nil
	}
	if p.accept(tokIdent, "IS") {
		neg := p.accept(tokIdent, "NOT")
		if _, err := p.expect(tokIdent, "NULL"); err != nil {
			return nil, err
		}
		return sqlast.IsNull{Expr: left, Not: neg}, nil
	}
	ops := map[string]sqlast.BinaryOp{
		"=": sqlast.OpEq, "<>": sqlast.OpNe, "!=": sqlast.OpNe,
		"<": sqlast.OpLt, "<=": sqlast.OpLe, ">": sqlast.OpGt, ">=": sqlast.OpGe,
	}
	if p.cur().kind == tokSymbol {
		if op, ok := ops[p.cur().text]; ok {
			p.pos++
			right, err := p.additive()
			if err != nil {
				return nil, err
			}
			return sqlast.BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

// atBetween returns 1 for NOT BETWEEN, 0 for BETWEEN, -1 otherwise,
// without consuming tokens.
func (p *parser) atBetween() int {
	if p.at(tokIdent, "BETWEEN") {
		return 0
	}
	if p.at(tokIdent, "NOT") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokIdent && p.toks[p.pos+1].text == "BETWEEN" {
		return 1
	}
	return -1
}

func (p *parser) additive() (sqlast.Expr, error) {
	left, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.BinaryOp
		switch {
		case p.at(tokSymbol, "+"):
			op = sqlast.OpAdd
		case p.at(tokSymbol, "-"):
			op = sqlast.OpSub
		default:
			return left, nil
		}
		p.pos++
		right, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		left = sqlast.BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) multiplicative() (sqlast.Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.BinaryOp
		switch {
		case p.at(tokSymbol, "*"):
			op = sqlast.OpMul
		case p.at(tokSymbol, "/"):
			op = sqlast.OpDiv
		default:
			return left, nil
		}
		p.pos++
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = sqlast.BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) unary() (sqlast.Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(sqlast.Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return sqlast.Literal{Value: types.Int(-lit.Value.AsInt())}, nil
			case types.KindFloat:
				return sqlast.Literal{Value: types.Float(-lit.Value.AsFloat())}, nil
			}
		}
		return sqlast.UnaryExpr{Op: "-", Operand: e}, nil
	}
	return p.primary()
}

func (p *parser) primary() (sqlast.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return sqlast.Literal{Value: types.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return sqlast.Literal{Value: types.Int(n)}, nil
	case tokString:
		p.pos++
		return sqlast.Literal{Value: types.Str(t.text)}, nil
	case tokSymbol:
		if t.text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch t.text {
		case "NULL":
			p.pos++
			return sqlast.Literal{Value: types.Null}, nil
		case "TRUE":
			p.pos++
			return sqlast.Literal{Value: types.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return sqlast.Literal{Value: types.Bool(false)}, nil
		case "DATE":
			// DATE 'YYYY-MM-DD'
			p.pos++
			lit, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			day, err := parseDate(lit.text)
			if err != nil {
				return nil, p.errorf("bad date literal %q", lit.text)
			}
			return sqlast.Literal{Value: types.Date(day)}, nil
		}
		// Function call?
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			return p.funcCall()
		}
		if isReserved(t.text) {
			return nil, p.errorf("unexpected keyword %q in expression", t.raw)
		}
		// Column reference, possibly qualified.
		p.pos++
		if p.accept(tokSymbol, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return sqlast.ColumnRef{Table: t.raw, Name: col}, nil
		}
		return sqlast.ColumnRef{Name: t.raw}, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.raw)
}

func (p *parser) funcCall() (sqlast.Expr, error) {
	name := p.cur().text
	p.pos += 2 // name and "("
	call := sqlast.FuncCall{Name: name}
	if p.accept(tokSymbol, ")") {
		return call, nil
	}
	if p.accept(tokIdent, "DISTINCT") {
		call.Distinct = true
	}
	for {
		if p.accept(tokSymbol, "*") {
			call.Args = append(call.Args, sqlast.Star{})
		} else {
			a, err := p.expression()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return call, nil
}

func parseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, err
	}
	return t.Unix() / 86400, nil
}

// --- DDL/DML ---

func (p *parser) createStmt() (sqlast.Statement, error) {
	p.pos++ // CREATE
	if p.accept(tokIdent, "INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &sqlast.CreateIndex{Name: name, Table: table, Column: col}, nil
	}
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	ct := &sqlast.CreateTable{}
	if p.accept(tokIdent, "IF") {
		if _, err := p.expect(tokIdent, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIdent, "EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := p.columnType()
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, sqlast.ColumnDef{Name: col, Kind: kind})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) columnType() (types.Kind, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return 0, p.errorf("expected type name, found %q", t.raw)
	}
	p.pos++
	var kind types.Kind
	switch t.text {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "NUMBER":
		kind = types.KindInt
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		kind = types.KindFloat
	case "VARCHAR", "CHAR", "TEXT", "STRING", "VARCHAR2":
		kind = types.KindString
	case "BOOLEAN", "BOOL":
		kind = types.KindBool
	case "DATE":
		kind = types.KindDate
	default:
		return 0, p.errorf("unknown type %q", t.raw)
	}
	// Optional (n) or (p, s) length spec, ignored.
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			if p.at(tokEOF, "") {
				return 0, p.errorf("unterminated type length")
			}
			p.pos++
		}
	}
	return kind, nil
}

func (p *parser) dropTable() (sqlast.Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	d := &sqlast.DropTable{}
	if p.accept(tokIdent, "IF") {
		if _, err := p.expect(tokIdent, "EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

func (p *parser) insert() (sqlast.Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokIdent, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &sqlast.Insert{Table: name}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tokIdent, "SELECT") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	if _, err := p.expect(tokIdent, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []sqlast.Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) analyze() (sqlast.Statement, error) {
	p.pos++ // ANALYZE
	p.accept(tokIdent, "TABLE")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	a := &sqlast.Analyze{Table: name}
	if p.accept(tokIdent, "HISTOGRAM") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errorf("bad bucket count %q", t.text)
		}
		a.HistogramBuckets = n
	}
	return a, nil
}
