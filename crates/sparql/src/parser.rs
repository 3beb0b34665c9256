//! Recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;
use std::fmt;

use hsp_rdf::Term;

use crate::ast::{
    AggAst, AggFuncAst, Element, ExprAst, GroupPattern, NodeAst, Query, TriplePatternAst, UpdateOp,
    UpdateRequest,
};
use crate::lexer::{tokenize, LexError, Token, TokenKind};

/// A parse (or lex) error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the query text.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            offset: e.offset,
            message: e.message,
        }
    }
}

/// Parse a SPARQL query string into an AST.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    };
    parser.parse()
}

/// Parse a SPARQL 1.1 Update request (`INSERT DATA` / `DELETE DATA` /
/// `DELETE WHERE`, separated by `;`).
pub fn parse_update(input: &str) -> Result<UpdateRequest, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
    };
    parser.parse_update()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

impl Parser {
    fn parse(&mut self) -> Result<Query, ParseError> {
        // PREFIX declarations.
        let mut prefixes = Vec::new();
        while self.at_keyword("PREFIX") {
            self.advance();
            let (name, base) = self.parse_prefix_decl()?;
            self.prefixes.insert(name.clone(), base.clone());
            prefixes.push((name, base));
        }

        // Query form: SELECT … or ASK.
        if self.at_keyword("ASK") {
            self.advance();
            // WHERE is optional for ASK (`ASK { … }`).
            if self.at_keyword("WHERE") {
                self.advance();
            }
            let where_clause = self.parse_group()?;
            self.expect_eof()?;
            return Ok(Query {
                prefixes,
                ask: true,
                distinct: false,
                reduced: false,
                projection: Some(Vec::new()),
                aggregates: Vec::new(),
                group_by: Vec::new(),
                having: None,
                where_clause,
                order_by: Vec::new(),
                limit: None,
                offset: None,
            });
        }

        self.expect_keyword("SELECT")?;
        let mut distinct = false;
        let mut reduced = false;
        if self.at_keyword("DISTINCT") {
            self.advance();
            distinct = true;
        } else if self.at_keyword("REDUCED") {
            self.advance();
            reduced = true;
        }

        let mut aggregates = Vec::new();
        let projection = if self.at_punct("*") {
            self.advance();
            None
        } else {
            let mut vars = Vec::new();
            #[allow(clippy::while_let_loop)] // the non-item arm documents the exit
            loop {
                match self.peek().clone() {
                    TokenKind::Var(name) => {
                        self.advance();
                        vars.push(name);
                        // Optional comma between projection variables (the
                        // paper writes `SELECT ?yr,?jrnl`).
                        if self.at_punct(",") {
                            self.advance();
                        }
                    }
                    TokenKind::Punct("(") => {
                        // `( AGG([DISTINCT] ?x|*) AS ?alias )` select item.
                        let agg = self.parse_agg_select_item()?;
                        vars.push(agg.alias.clone());
                        aggregates.push(agg);
                        if self.at_punct(",") {
                            self.advance();
                        }
                    }
                    _ => break,
                }
            }
            if vars.is_empty() {
                return Err(self.err("SELECT needs at least one variable or `*`"));
            }
            Some(vars)
        };

        self.expect_keyword("WHERE")?;
        let where_clause = self.parse_group()?;

        // GROUP BY / HAVING sit between the WHERE group and ORDER BY
        // (the SPARQL 1.1 grammar's SolutionModifier order).
        let mut group_by = Vec::new();
        if self.at_keyword("GROUP") {
            self.advance();
            self.expect_keyword("BY")?;
            while let TokenKind::Var(name) = self.peek().clone() {
                self.advance();
                group_by.push(name);
                if self.at_punct(",") {
                    self.advance();
                }
            }
            if group_by.is_empty() {
                return Err(self.err("GROUP BY needs at least one variable"));
            }
        }
        let having = if self.at_keyword("HAVING") {
            self.advance();
            self.expect_punct("(")?;
            let e = self.parse_or_expr()?;
            self.expect_punct(")")?;
            Some(e)
        } else {
            None
        };

        // Solution modifiers: ORDER BY, then LIMIT/OFFSET in either order.
        let order_by = if self.at_keyword("ORDER") {
            self.advance();
            self.expect_keyword("BY")?;
            self.parse_order_keys()?
        } else {
            Vec::new()
        };
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.at_keyword("LIMIT") && limit.is_none() {
                self.advance();
                limit = Some(self.parse_nonneg_int("LIMIT")?);
            } else if self.at_keyword("OFFSET") && offset.is_none() {
                self.advance();
                offset = Some(self.parse_nonneg_int("OFFSET")?);
            } else {
                break;
            }
        }

        self.expect_eof()?;

        Ok(Query {
            prefixes,
            ask: false,
            distinct,
            reduced,
            projection,
            aggregates,
            group_by,
            having,
            where_clause,
            order_by,
            limit,
            offset,
        })
    }

    /// The aggregate function for a keyword, if it is one.
    fn agg_func(kw: &str) -> Option<AggFuncAst> {
        match kw {
            "COUNT" => Some(AggFuncAst::Count),
            "SUM" => Some(AggFuncAst::Sum),
            "MIN" => Some(AggFuncAst::Min),
            "MAX" => Some(AggFuncAst::Max),
            "AVG" => Some(AggFuncAst::Avg),
            _ => None,
        }
    }

    /// `'(' AGG '(' [DISTINCT] ('*'|?var) ')' AS ?alias ')'` — the select
    /// list's aggregate item, positioned at the opening `(`.
    fn parse_agg_select_item(&mut self) -> Result<AggAst, ParseError> {
        self.expect_punct("(")?;
        let func = match self.peek().clone() {
            TokenKind::Keyword(kw) if Self::agg_func(&kw).is_some() => {
                self.advance();
                Self::agg_func(&kw).expect("guarded")
            }
            other => {
                return Err(self.err(format!(
                    "expected an aggregate function (COUNT/SUM/MIN/MAX/AVG), found {other}"
                )))
            }
        };
        let (distinct, arg) = self.parse_agg_body(func)?;
        self.expect_keyword("AS")?;
        let alias = match self.peek().clone() {
            TokenKind::Var(name) => {
                self.advance();
                name
            }
            other => return Err(self.err(format!("expected `?alias` after AS, found {other}"))),
        };
        self.expect_punct(")")?;
        Ok(AggAst {
            func,
            distinct,
            arg,
            alias,
        })
    }

    /// `'(' [DISTINCT] ('*'|?var) ')'` — the argument list of an aggregate
    /// call, with the function keyword already consumed.
    fn parse_agg_body(&mut self, func: AggFuncAst) -> Result<(bool, Option<String>), ParseError> {
        self.expect_punct("(")?;
        let mut distinct = false;
        if self.at_keyword("DISTINCT") {
            self.advance();
            distinct = true;
        }
        let arg = if self.at_punct("*") {
            if func != AggFuncAst::Count {
                return Err(self.err(format!("`*` is only valid in COUNT, not {}", func.name())));
            }
            self.advance();
            None
        } else {
            match self.peek().clone() {
                TokenKind::Var(name) => {
                    self.advance();
                    Some(name)
                }
                other => {
                    return Err(self.err(format!(
                        "expected `*` or a variable in {}(…), found {other}",
                        func.name()
                    )))
                }
            }
        };
        self.expect_punct(")")?;
        Ok((distinct, arg))
    }

    /// `ORDER BY` keys: `?var`, `ASC(expr)`, `DESC(expr)`, or a
    /// parenthesised / built-in-call expression.
    fn parse_order_keys(&mut self) -> Result<Vec<(ExprAst, bool)>, ParseError> {
        let mut keys = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Var(name) => {
                    self.advance();
                    keys.push((ExprAst::Var(name), false));
                }
                TokenKind::Keyword(kw) if kw == "ASC" || kw == "DESC" => {
                    self.advance();
                    self.expect_punct("(")?;
                    let e = self.parse_or_expr()?;
                    self.expect_punct(")")?;
                    keys.push((e, kw == "DESC"));
                }
                TokenKind::Punct("(") => {
                    self.advance();
                    let e = self.parse_or_expr()?;
                    self.expect_punct(")")?;
                    keys.push((e, false));
                }
                TokenKind::Keyword(kw) if crate::expr::Func::from_name(&kw).is_some() => {
                    keys.push((self.parse_primary_expr()?, false));
                }
                _ => break,
            }
        }
        if keys.is_empty() {
            return Err(self.err("ORDER BY needs at least one sort key"));
        }
        Ok(keys)
    }

    fn parse_nonneg_int(&mut self, what: &str) -> Result<usize, ParseError> {
        match self.peek().clone() {
            TokenKind::Number(n) if !n.contains('.') && !n.contains('e') && !n.contains('E') => {
                self.advance();
                n.parse::<usize>()
                    .map_err(|_| self.err(format!("{what} count out of range")))
            }
            other => Err(self.err(format!("expected an integer after {what}, found {other}"))),
        }
    }

    /// `update := prefix* op (';' op)* (';')?`
    fn parse_update(&mut self) -> Result<UpdateRequest, ParseError> {
        let mut prefixes = Vec::new();
        while self.at_keyword("PREFIX") {
            self.advance();
            let (name, base) = self.parse_prefix_decl()?;
            self.prefixes.insert(name.clone(), base.clone());
            prefixes.push((name, base));
        }
        let mut ops = Vec::new();
        loop {
            if self.at_keyword("INSERT") {
                self.advance();
                self.expect_keyword("DATA")?;
                ops.push(UpdateOp::InsertData(
                    self.parse_ground_block("INSERT DATA")?,
                ));
            } else if self.at_keyword("DELETE") {
                self.advance();
                if self.at_keyword("DATA") {
                    self.advance();
                    ops.push(UpdateOp::DeleteData(
                        self.parse_ground_block("DELETE DATA")?,
                    ));
                } else if self.at_keyword("WHERE") {
                    self.advance();
                    ops.push(UpdateOp::DeleteWhere(self.parse_group()?));
                } else {
                    return Err(self.err(format!(
                        "expected DATA or WHERE after DELETE, found {}",
                        self.peek()
                    )));
                }
            } else {
                return Err(self.err(format!("expected INSERT or DELETE, found {}", self.peek())));
            }
            if self.at_punct(";") {
                self.advance();
                if matches!(self.peek(), TokenKind::Eof) {
                    break; // trailing `;`
                }
            } else {
                break;
            }
        }
        self.expect_eof()?;
        Ok(UpdateRequest { prefixes, ops })
    }

    /// A `{ … }` block of *ground* triples (no variables, no FILTER /
    /// OPTIONAL / UNION) for `INSERT DATA` / `DELETE DATA`.
    fn parse_ground_block(&mut self, context: &str) -> Result<Vec<TriplePatternAst>, ParseError> {
        let offset = self.tokens[self.pos].offset;
        let group = self.parse_group()?;
        let mut triples = Vec::with_capacity(group.elements.len());
        for element in group.elements {
            match element {
                Element::Triple(t) => {
                    if t.subject.var_name().is_some()
                        || t.predicate.var_name().is_some()
                        || t.object.var_name().is_some()
                    {
                        return Err(ParseError {
                            offset,
                            message: format!("{context} requires ground triples (no variables)"),
                        });
                    }
                    triples.push(t);
                }
                _ => {
                    return Err(ParseError {
                        offset,
                        message: format!("{context} allows only triples"),
                    })
                }
            }
        }
        Ok(triples)
    }

    fn parse_prefix_decl(&mut self) -> Result<(String, String), ParseError> {
        // `PREFIX name: <iri>` — the lexer merges `name:` into a Prefixed
        // token with empty local part (or `name:` followed by nothing).
        match self.peek().clone() {
            TokenKind::Prefixed(name, local) if local.is_empty() => {
                self.advance();
                match self.peek().clone() {
                    TokenKind::Iri(iri) => {
                        self.advance();
                        Ok((name, iri))
                    }
                    other => Err(self.err(format!("expected IRI after PREFIX, found {other}"))),
                }
            }
            other => Err(self.err(format!("expected `name:` after PREFIX, found {other}"))),
        }
    }

    fn parse_group(&mut self) -> Result<GroupPattern, ParseError> {
        self.expect_punct("{")?;
        let mut elements = Vec::new();
        loop {
            if self.at_punct("}") {
                self.advance();
                break;
            }
            if self.at_keyword("FILTER") {
                self.advance();
                // `FILTER ( expr )` or a bare built-in call:
                // `FILTER regex(?name, "^ali", "i")`.
                let expr = if self.at_punct("(") {
                    self.advance();
                    let e = self.parse_or_expr()?;
                    self.expect_punct(")")?;
                    e
                } else {
                    self.parse_primary_expr()?
                };
                elements.push(Element::Filter(expr));
                // Optional '.' after a filter.
                if self.at_punct(".") {
                    self.advance();
                }
                continue;
            }
            if self.at_keyword("OPTIONAL") {
                self.advance();
                let group = self.parse_group()?;
                elements.push(Element::Optional(group));
                if self.at_punct(".") {
                    self.advance();
                }
                continue;
            }
            if self.at_punct("{") {
                // `{ … } UNION { … }`
                let left = self.parse_group()?;
                self.expect_keyword("UNION")?;
                let right = self.parse_group()?;
                elements.push(Element::Union(left, right));
                if self.at_punct(".") {
                    self.advance();
                }
                continue;
            }
            // A triple pattern, possibly with `;` predicate-object lists and
            // `,` object lists.
            let subject = self.parse_node()?;
            loop {
                let predicate = self.parse_verb()?;
                loop {
                    let object = self.parse_node()?;
                    elements.push(Element::Triple(TriplePatternAst {
                        subject: subject.clone(),
                        predicate: predicate.clone(),
                        object,
                    }));
                    if self.at_punct(",") {
                        self.advance();
                    } else {
                        break;
                    }
                }
                if self.at_punct(";") {
                    self.advance();
                    // Allow a dangling `;` before `.` or `}`.
                    if self.at_punct(".") || self.at_punct("}") {
                        break;
                    }
                } else {
                    break;
                }
            }
            if self.at_punct(".") {
                self.advance();
            } else if !self.at_punct("}") {
                return Err(self.err(format!(
                    "expected `.` or `}}` after triple pattern, found {}",
                    self.peek()
                )));
            }
        }
        Ok(GroupPattern { elements })
    }

    fn parse_verb(&mut self) -> Result<NodeAst, ParseError> {
        if matches!(self.peek(), TokenKind::A) {
            self.advance();
            return Ok(NodeAst::Const(Term::iri(hsp_rdf::vocab::RDF_TYPE)));
        }
        self.parse_node()
    }

    fn parse_node(&mut self) -> Result<NodeAst, ParseError> {
        match self.peek().clone() {
            TokenKind::Var(name) => {
                self.advance();
                Ok(NodeAst::Var(name))
            }
            _ => Ok(NodeAst::Const(self.parse_const()?)),
        }
    }

    fn parse_const(&mut self) -> Result<Term, ParseError> {
        match self.peek().clone() {
            TokenKind::Iri(iri) => {
                self.advance();
                Ok(Term::iri(iri))
            }
            TokenKind::Prefixed(prefix, local) => {
                let base = self
                    .prefixes
                    .get(&prefix)
                    .cloned()
                    .ok_or_else(|| self.err(format!("undeclared prefix `{prefix}:`")))?;
                self.advance();
                Ok(Term::iri(format!("{base}{local}")))
            }
            TokenKind::Literal {
                lexical,
                language,
                datatype,
            } => {
                self.advance();
                Ok(match (language, datatype) {
                    (Some(lang), _) => Term::lang_literal(lexical, lang),
                    (None, Some(dt)) => Term::typed_literal(lexical, dt),
                    (None, None) => Term::literal(lexical),
                })
            }
            TokenKind::Number(n) => {
                self.advance();
                let dt = if n.contains('e') || n.contains('E') {
                    hsp_rdf::vocab::XSD_DOUBLE
                } else if n.contains('.') {
                    hsp_rdf::vocab::XSD_DECIMAL
                } else {
                    hsp_rdf::vocab::XSD_INTEGER
                };
                Ok(Term::typed_literal(n, dt))
            }
            TokenKind::Keyword(kw) if kw == "TRUE" || kw == "FALSE" => {
                self.advance();
                Ok(Term::typed_literal(
                    kw.to_ascii_lowercase(),
                    hsp_rdf::vocab::XSD_BOOLEAN,
                ))
            }
            other => Err(self.err(format!("expected a term, found {other}"))),
        }
    }

    // --- the expression grammar (SPARQL precedence ladder) ---

    /// `or := and ('||' and)*`
    fn parse_or_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.parse_and_expr()?;
        while self.at_punct("||") {
            self.advance();
            let rhs = self.parse_and_expr()?;
            lhs = ExprAst::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// `and := relational ('&&' relational)*`
    fn parse_and_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.parse_relational_expr()?;
        while self.at_punct("&&") {
            self.advance();
            let rhs = self.parse_relational_expr()?;
            lhs = ExprAst::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// `relational := additive (cmpop additive)?` — the comparison is
    /// optional so `FILTER(BOUND(?x))` and `FILTER(?flag)` parse.
    fn parse_relational_expr(&mut self) -> Result<ExprAst, ParseError> {
        let lhs = self.parse_additive_expr()?;
        let op = match self.peek() {
            TokenKind::Punct(p @ ("=" | "!=" | "<" | "<=" | ">" | ">=")) => *p,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.parse_additive_expr()?;
        Ok(ExprAst::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    /// `additive := multiplicative (('+'|'-') multiplicative)*`
    fn parse_additive_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.parse_multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("+") => '+',
                TokenKind::Punct("-") => '-',
                _ => break,
            };
            self.advance();
            let rhs = self.parse_multiplicative_expr()?;
            lhs = ExprAst::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    /// `multiplicative := unary (('*'|'/') unary)*`
    fn parse_multiplicative_expr(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.parse_unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct("*") => '*',
                TokenKind::Punct("/") => '/',
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary_expr()?;
            lhs = ExprAst::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    /// `unary := '!' unary | '-' unary | '+' unary | primary`
    fn parse_unary_expr(&mut self) -> Result<ExprAst, ParseError> {
        match self.peek() {
            TokenKind::Punct("!") => {
                self.advance();
                Ok(ExprAst::Not(Box::new(self.parse_unary_expr()?)))
            }
            TokenKind::Punct("-") => {
                self.advance();
                Ok(ExprAst::Neg(Box::new(self.parse_unary_expr()?)))
            }
            TokenKind::Punct("+") => {
                self.advance();
                self.parse_unary_expr()
            }
            _ => self.parse_primary_expr(),
        }
    }

    /// `primary := '(' or ')' | func '(' args ')' | var | constant`
    fn parse_primary_expr(&mut self) -> Result<ExprAst, ParseError> {
        match self.peek().clone() {
            TokenKind::Punct("(") => {
                self.advance();
                let inner = self.parse_or_expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            TokenKind::Var(name) => {
                self.advance();
                Ok(ExprAst::Var(name))
            }
            TokenKind::Keyword(kw) if kw == "TRUE" || kw == "FALSE" => {
                self.advance();
                Ok(ExprAst::Const(Term::typed_literal(
                    kw.to_ascii_lowercase(),
                    hsp_rdf::vocab::XSD_BOOLEAN,
                )))
            }
            TokenKind::Keyword(kw) if Self::agg_func(&kw).is_some() => {
                // Aggregate call — only meaningful inside HAVING; lowering
                // rejects it anywhere else.
                let func = Self::agg_func(&kw).expect("guarded");
                self.advance();
                let (distinct, arg) = self.parse_agg_body(func)?;
                Ok(ExprAst::Agg {
                    func,
                    distinct,
                    arg,
                })
            }
            TokenKind::Keyword(kw) if crate::expr::Func::from_name(&kw).is_some() => {
                self.advance();
                self.expect_punct("(")?;
                let mut args = Vec::new();
                if !self.at_punct(")") {
                    loop {
                        args.push(self.parse_or_expr()?);
                        if self.at_punct(",") {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_punct(")")?;
                Ok(ExprAst::Call { func: kw, args })
            }
            _ => Ok(ExprAst::Const(self.parse_const()?)),
        }
    }

    // --- token helpers ---

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), TokenKind::Punct(q) if *q == p)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_keyword(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.at_punct(p) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing {}", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.tokens[self.pos].offset,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn triples(q: &Query) -> Vec<&TriplePatternAst> {
        q.where_clause
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Triple(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn parses_the_papers_example_query() {
        // Section 3 example (with PREFIX declarations added).
        let q = parse_query(
            r#"
            PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
            PREFIX bench: <http://localhost/vocabulary/bench/>
            PREFIX dc: <http://purl.org/dc/elements/1.1/>
            PREFIX dcterms: <http://purl.org/dc/terms/>
            SELECT ?yr,?jrnl
            WHERE {?jrnl rdf:type bench:Journal .
                   ?jrnl dc:title "Journal 1 (1940)" .
                   ?jrnl dcterms:issued ?yr .
                   ?jrnl dcterms:revised ?rev .
                   FILTER (?rev="1942") }
            "#,
        )
        .unwrap();
        assert_eq!(
            q.projection,
            Some(vec!["yr".to_string(), "jrnl".to_string()])
        );
        assert_eq!(triples(&q).len(), 4);
        assert_eq!(
            triples(&q)[0].predicate,
            NodeAst::Const(Term::iri(hsp_rdf::vocab::RDF_TYPE))
        );
        let filters: Vec<_> = q
            .where_clause
            .elements
            .iter()
            .filter(|e| matches!(e, Element::Filter(_)))
            .collect();
        assert_eq!(filters.len(), 1);
    }

    #[test]
    fn a_is_rdf_type() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://e/C> . }").unwrap();
        assert_eq!(
            triples(&q)[0].predicate,
            NodeAst::Const(Term::iri(hsp_rdf::vocab::RDF_TYPE))
        );
    }

    #[test]
    fn select_star_and_distinct() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o . }").unwrap();
        assert!(q.distinct);
        assert_eq!(q.projection, None);
    }

    #[test]
    fn predicate_object_list_sugar() {
        let q =
            parse_query("SELECT ?x WHERE { ?x <http://e/p> ?a ; <http://e/q> ?b , ?c . }").unwrap();
        let ts = triples(&q);
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().all(|t| t.subject == NodeAst::Var("x".into())));
        assert_eq!(ts[1].object, NodeAst::Var("b".into()));
        assert_eq!(ts[2].object, NodeAst::Var("c".into()));
    }

    #[test]
    fn missing_final_dot_is_fine_before_brace() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o }").unwrap();
        assert_eq!(triples(&q).len(), 1);
    }

    #[test]
    fn numeric_literal_becomes_typed() {
        let q = parse_query("SELECT ?x WHERE { ?x <http://e/p> 1942 . }").unwrap();
        assert_eq!(
            triples(&q)[0].object,
            NodeAst::Const(Term::typed_literal(
                "1942",
                "http://www.w3.org/2001/XMLSchema#integer"
            ))
        );
    }

    #[test]
    fn filter_connectives_and_parens() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x ?p ?y . FILTER ((?y > 3 && ?y < 9) || ?x = <http://e/z>) }",
        )
        .unwrap();
        let filter = q
            .where_clause
            .elements
            .iter()
            .find_map(|e| match e {
                Element::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert!(matches!(filter, ExprAst::Or(_, _)));
    }

    #[test]
    fn optional_and_union_parse() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x ?p ?y . OPTIONAL { ?x <http://e/q> ?z . } \
             { ?x <http://e/r> ?w . } UNION { ?x <http://e/s> ?w . } }",
        )
        .unwrap();
        assert!(q
            .where_clause
            .elements
            .iter()
            .any(|e| matches!(e, Element::Optional(_))));
        assert!(q
            .where_clause
            .elements
            .iter()
            .any(|e| matches!(e, Element::Union(_, _))));
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse_query("SELECT ?x WHERE { ?x rdf:type ?y . }").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
    }

    #[test]
    fn empty_projection_is_an_error() {
        assert!(parse_query("SELECT WHERE { ?x ?p ?o . }").is_err());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } garbage").is_err());
    }

    #[test]
    fn missing_where_is_an_error() {
        let err = parse_query("SELECT ?x { ?x ?p ?o . }").unwrap_err();
        assert!(err.message.contains("WHERE"));
    }

    #[test]
    fn filter_without_parens_is_an_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . FILTER ?x = 3 }").is_err());
    }

    // --- the full expression grammar ---

    fn first_filter(query: &str) -> ExprAst {
        let q = parse_query(query).unwrap();
        q.where_clause
            .elements
            .iter()
            .find_map(|e| match e {
                Element::Filter(f) => Some(f.clone()),
                _ => None,
            })
            .expect("query has a FILTER")
    }

    #[test]
    fn parses_function_calls() {
        let f = first_filter(r#"SELECT ?x WHERE { ?x ?p ?n . FILTER regex(?n, "^ali", "i") }"#);
        match f {
            ExprAst::Call { func, args } => {
                assert_eq!(func, "REGEX");
                assert_eq!(args.len(), 3);
                assert_eq!(args[0], ExprAst::Var("n".into()));
            }
            other => panic!("expected a call, got {other:?}"),
        }
    }

    #[test]
    fn parses_bare_builtin_filter() {
        // FILTER bound(?x) without wrapping parens is legal SPARQL.
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER bound(?x) }");
        assert!(matches!(f, ExprAst::Call { func, .. } if func == "BOUND"));
    }

    #[test]
    fn negation_binds_tighter_than_and() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (!bound(?x) && ?o > 3) }");
        match f {
            ExprAst::And(lhs, _) => assert!(matches!(*lhs, ExprAst::Not(_))),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o = 1 + 2 * 3) }");
        match f {
            ExprAst::Cmp { rhs, .. } => match *rhs {
                ExprAst::Arith {
                    op: '+',
                    rhs: ref mul,
                    ..
                } => {
                    assert!(matches!(**mul, ExprAst::Arith { op: '*', .. }))
                }
                ref other => panic!("expected +, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn parenthesised_arithmetic_overrides_precedence() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o = (1 + 2) * 3) }");
        match f {
            ExprAst::Cmp { rhs, .. } => {
                assert!(matches!(*rhs, ExprAst::Arith { op: '*', .. }))
            }
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_plus() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o > -5) }");
        match f {
            ExprAst::Cmp { rhs, .. } => assert!(matches!(*rhs, ExprAst::Neg(_))),
            other => panic!("expected Cmp, got {other:?}"),
        }
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o > +5) }");
        match f {
            ExprAst::Cmp { rhs, .. } => assert!(matches!(*rhs, ExprAst::Const(_))),
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn boolean_literals() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o = true) }");
        match f {
            ExprAst::Cmp { rhs, .. } => match *rhs {
                ExprAst::Const(Term::Literal {
                    ref lexical,
                    ref datatype,
                    ..
                }) => {
                    assert_eq!(&**lexical, "true");
                    assert_eq!(datatype.as_deref(), Some(hsp_rdf::vocab::XSD_BOOLEAN));
                }
                ref other => panic!("expected boolean const, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn double_literals_with_exponent() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (?o < 1.5e3) }");
        match f {
            ExprAst::Cmp { rhs, .. } => match *rhs {
                ExprAst::Const(Term::Literal { ref datatype, .. }) => {
                    assert_eq!(datatype.as_deref(), Some(hsp_rdf::vocab::XSD_DOUBLE));
                }
                ref other => panic!("expected double const, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn nested_function_calls() {
        let f = first_filter(r#"SELECT ?x WHERE { ?x ?p ?o . FILTER (strlen(str(?o)) > 3) }"#);
        match f {
            ExprAst::Cmp { lhs, .. } => match *lhs {
                ExprAst::Call { ref func, ref args } => {
                    assert_eq!(func, "STRLEN");
                    assert!(matches!(args[0], ExprAst::Call { .. }));
                }
                ref other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn wrong_arity_is_rejected_at_lowering() {
        use crate::algebra::JoinQuery;
        let err =
            JoinQuery::parse("SELECT ?x WHERE { ?x ?p ?o . FILTER bound(?x, ?o) }").unwrap_err();
        assert!(err.to_string().contains("arguments"));
    }

    #[test]
    fn filter_comparison_of_two_calls() {
        let f = first_filter("SELECT ?x WHERE { ?x ?p ?o . FILTER (lang(?o) = lang(?x)) }");
        assert!(matches!(f, ExprAst::Cmp { .. }));
    }

    // --- solution modifiers ---

    #[test]
    fn parses_order_by_limit_offset() {
        let q =
            parse_query("SELECT ?x WHERE { ?x ?p ?o . } ORDER BY ?o DESC(?x) LIMIT 10 OFFSET 5")
                .unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0], (ExprAst::Var("o".into()), false));
        assert_eq!(q.order_by[1], (ExprAst::Var("x".into()), true));
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn offset_before_limit_is_accepted() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o . } OFFSET 5 LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn order_by_expression_keys() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o . } ORDER BY ASC(str(?o)) (?o)").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(matches!(q.order_by[0].0, ExprAst::Call { .. }));
        assert_eq!(q.order_by[1], (ExprAst::Var("o".into()), false));
    }

    #[test]
    fn select_reduced() {
        let q = parse_query("SELECT REDUCED ?x WHERE { ?x ?p ?o . }").unwrap();
        assert!(q.reduced);
        assert!(!q.distinct);
    }

    #[test]
    fn empty_order_by_is_an_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } ORDER BY LIMIT 3").is_err());
    }

    #[test]
    fn fractional_limit_is_an_error() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } LIMIT 2.5").is_err());
    }

    #[test]
    fn modifiers_lower_into_join_query() {
        use crate::algebra::JoinQuery;
        let q = JoinQuery::parse(
            "SELECT ?x WHERE { ?x <http://e/p> ?o . } ORDER BY DESC(?o) LIMIT 3 OFFSET 1",
        )
        .unwrap();
        assert_eq!(q.modifiers.order_by.len(), 1);
        assert!(q.modifiers.order_by[0].descending);
        assert_eq!(q.modifiers.limit, Some(3));
        assert_eq!(q.modifiers.offset, 1);
        assert!(!q.modifiers.is_empty());
    }

    #[test]
    fn parses_ask_form() {
        let q = parse_query("ASK { ?x ?p ?o . }").unwrap();
        assert!(q.ask);
        let q =
            parse_query("ASK WHERE { ?x a <http://e/C> . FILTER (?x != <http://e/x>) }").unwrap();
        assert!(q.ask);
        assert!(parse_query("ASK ?x { ?x ?p ?o . }").is_err());
    }

    // --- SPARQL Update ---

    #[test]
    fn parses_insert_data() {
        let u = parse_update(
            r#"PREFIX e: <http://e/>
               INSERT DATA { e:j1 e:issued "1940" . e:j2 e:issued "1941" . }"#,
        )
        .unwrap();
        assert_eq!(u.ops.len(), 1);
        match &u.ops[0] {
            crate::ast::UpdateOp::InsertData(triples) => assert_eq!(triples.len(), 2),
            other => panic!("expected InsertData, got {other:?}"),
        }
    }

    #[test]
    fn parses_sequenced_update_ops() {
        let u = parse_update(
            r#"INSERT DATA { <http://e/a> <http://e/p> "x" . } ;
               DELETE DATA { <http://e/b> <http://e/p> "y" . } ;
               DELETE WHERE { ?s <http://e/p> ?o . } ;"#,
        )
        .unwrap();
        assert_eq!(u.ops.len(), 3);
        assert!(matches!(u.ops[2], crate::ast::UpdateOp::DeleteWhere(_)));
    }

    #[test]
    fn insert_data_rejects_variables() {
        let err = parse_update("INSERT DATA { ?x <http://e/p> \"v\" . }").unwrap_err();
        assert!(err.message.contains("ground"));
    }

    #[test]
    fn data_blocks_reject_filters() {
        let err = parse_update("DELETE DATA { <http://e/a> <http://e/p> \"x\" . FILTER (1 = 1) }")
            .unwrap_err();
        assert!(err.message.contains("only triples"));
    }

    #[test]
    fn bare_delete_is_an_error() {
        assert!(parse_update("DELETE { ?s ?p ?o . }").is_err());
    }

    #[test]
    fn order_by_unbound_var_is_an_error() {
        use crate::algebra::JoinQuery;
        assert!(
            JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?o . } ORDER BY ?nope").is_err()
        );
    }
}
