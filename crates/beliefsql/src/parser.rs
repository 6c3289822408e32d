//! Recursive-descent parser for the Fig. 1 grammar.
//!
//! ```text
//! select  ::= SELECT selectlist FROM fromitem (',' fromitem)* (WHERE conds)?
//! insert  ::= INSERT INTO prefix? table VALUES '(' literal (',' literal)* ')'
//! delete  ::= DELETE FROM prefix? table (AS? alias)? (WHERE conds)?
//! update  ::= UPDATE prefix? table (AS? alias)? SET col '=' literal
//!             (',' col '=' literal)* (WHERE conds)?
//! prefix  ::= (BELIEF userref)+ NOT?
//! userref ::= stringlit | ident ('.' ident)?
//! conds   ::= cond (AND cond)*
//! cond    ::= operand op operand ; op ∈ {=, <>, !=, <, <=, >, >=}
//! ```

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Keyword, Token, TokenKind};
use beliefdb_storage::CmpOp;

/// Parse one BeliefSQL statement (optionally `;`-terminated).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.accept(&TokenKind::Semicolon);
    p.expect(&TokenKind::Eof)?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    /// Step past the current token (never past the trailing `Eof`).
    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Move the text out of the current token, an identifier or a string,
    /// and step past it. The parser never looks back, so the token is left
    /// empty instead of cloned.
    fn take_text(&mut self) -> String {
        let text = match &mut self.tokens[self.pos].kind {
            TokenKind::Ident(s) | TokenKind::Str(s) => std::mem::take(s),
            other => unreachable!("take_text on {other}"),
        };
        self.advance();
        text
    }

    fn accept(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn accept_kw(&mut self, kw: Keyword) -> bool {
        self.accept(&TokenKind::Keyword(kw))
    }

    fn error(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            message: message.into(),
            near: self.peek().to_string(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.accept(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kind}`")))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(self.take_text()),
            _ => Err(self.error("expected identifier")),
        }
    }

    /// Accept `word` as a *contextual* keyword: ORDER/BY/ASC/DESC/LIMIT
    /// are not reserved (they lex as plain identifiers, so existing
    /// schemas may use them as names) and only act as keywords where the
    /// grammar expects them.
    fn accept_word(&mut self, word: &str) -> bool {
        if let TokenKind::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(word) {
                self.advance();
                return true;
            }
        }
        false
    }

    /// Whether the next token is the contextual keyword `word`.
    fn peek_word(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(word))
    }

    /// A table name: a plain identifier, or a dotted `sys.name` pair
    /// (the system-catalog namespace).
    fn table_name(&mut self) -> Result<String> {
        let first = self.ident()?;
        if self.accept(&TokenKind::Dot) {
            let rest = self.ident()?;
            Ok(format!("{first}.{rest}"))
        } else {
            Ok(first)
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.accept_kw(Keyword::Select) {
            return Ok(Statement::Select(self.select()?));
        }
        if self.accept_kw(Keyword::Insert) {
            return Ok(Statement::Insert(self.insert()?));
        }
        if self.accept_kw(Keyword::Delete) {
            return Ok(Statement::Delete(self.delete()?));
        }
        if self.accept_kw(Keyword::Update) {
            return Ok(Statement::Update(self.update()?));
        }
        Err(self.error("expected SELECT, INSERT, DELETE, or UPDATE"))
    }

    fn select(&mut self) -> Result<SelectStmt> {
        let mut items = vec![self.select_item()?];
        while self.accept(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw(Keyword::From)?;
        let mut from = vec![self.parse_from_item()?];
        while self.accept(&TokenKind::Comma) {
            from.push(self.parse_from_item()?);
        }
        let conditions = self.opt_where()?;
        let order_by = self.opt_order_by()?;
        let limit = self.opt_limit()?;
        Ok(SelectStmt {
            items,
            from,
            conditions,
            order_by,
            limit,
        })
    }

    fn opt_order_by(&mut self) -> Result<Vec<(ColumnRef, bool)>> {
        if !self.accept_word("order") {
            return Ok(Vec::new());
        }
        if !self.accept_word("by") {
            return Err(self.error("expected BY after ORDER"));
        }
        let mut keys = Vec::new();
        loop {
            let col = self.column_ref()?;
            let desc = if self.accept_word("desc") {
                true
            } else {
                self.accept_word("asc");
                false
            };
            keys.push((col, desc));
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    fn opt_limit(&mut self) -> Result<Option<usize>> {
        if !self.accept_word("limit") {
            return Ok(None);
        }
        match *self.peek() {
            TokenKind::Int(n) if n >= 0 => {
                self.advance();
                Ok(Some(n as usize))
            }
            _ => Err(self.error("expected a non-negative integer after LIMIT")),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.accept(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.accept(&TokenKind::Dot) {
            let column = self.ident()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                column: first,
            })
        }
    }

    fn belief_prefix(&mut self) -> Result<Option<BeliefPrefix>> {
        if self.peek() != &TokenKind::Keyword(Keyword::Belief) {
            return Ok(None);
        }
        let mut users = Vec::new();
        while self.accept_kw(Keyword::Belief) {
            users.push(self.user_ref()?);
        }
        let negated = self.accept_kw(Keyword::Not);
        Ok(Some(BeliefPrefix { users, negated }))
    }

    fn user_ref(&mut self) -> Result<UserRef> {
        match self.peek() {
            TokenKind::Str(_) => Ok(UserRef::Name(self.take_text())),
            TokenKind::Ident(_) => Ok(UserRef::Column(self.column_ref()?)),
            _ => Err(self.error("expected a user name or column after BELIEF")),
        }
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        let prefix = self.belief_prefix()?;
        let table = self.table_name()?;
        let alias = self.opt_alias()?;
        Ok(FromItem {
            prefix,
            table,
            alias,
        })
    }

    fn opt_alias(&mut self) -> Result<Option<String>> {
        if self.accept_kw(Keyword::As) {
            return Ok(Some(self.ident()?));
        }
        // Bare alias (`Sightings S`) — but not the contextual ORDER /
        // LIMIT keywords, which start the next clause.
        if let TokenKind::Ident(_) = self.peek() {
            if self.peek_word("order") || self.peek_word("limit") {
                return Ok(None);
            }
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    fn opt_where(&mut self) -> Result<Vec<Condition>> {
        if !self.accept_kw(Keyword::Where) {
            return Ok(Vec::new());
        }
        let mut out = vec![self.condition()?];
        while self.accept_kw(Keyword::And) {
            out.push(self.condition()?);
        }
        Ok(out)
    }

    fn condition(&mut self) -> Result<Condition> {
        let left = self.operand()?;
        let op = self.cmp_op()?;
        let right = self.operand()?;
        Ok(Condition { left, op, right })
    }

    fn operand(&mut self) -> Result<Operand> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(Operand::Column(self.column_ref()?)),
            TokenKind::Str(_) | TokenKind::Int(_) => Ok(Operand::Literal(self.literal()?)),
            _ => Err(self.error("expected a column or literal")),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.advance();
        Ok(op)
    }

    fn insert(&mut self) -> Result<InsertStmt> {
        self.expect_kw(Keyword::Into)?;
        let prefix = self.belief_prefix()?;
        let table = self.table_name()?;
        self.expect_kw(Keyword::Values)?;
        self.expect(&TokenKind::LParen)?;
        let mut values = vec![self.literal()?];
        while self.accept(&TokenKind::Comma) {
            values.push(self.literal()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(InsertStmt {
            prefix,
            table,
            values,
        })
    }

    fn literal(&mut self) -> Result<Literal> {
        match *self.peek() {
            TokenKind::Str(_) => Ok(Literal::Str(self.take_text())),
            TokenKind::Int(i) => {
                self.advance();
                Ok(Literal::Int(i))
            }
            _ => Err(self.error("expected a literal value")),
        }
    }

    fn delete(&mut self) -> Result<DeleteStmt> {
        self.expect_kw(Keyword::From)?;
        let prefix = self.belief_prefix()?;
        let table = self.table_name()?;
        let alias = self.opt_alias()?;
        let conditions = self.opt_where()?;
        Ok(DeleteStmt {
            prefix,
            table,
            alias,
            conditions,
        })
    }

    fn update(&mut self) -> Result<UpdateStmt> {
        let prefix = self.belief_prefix()?;
        let table = self.table_name()?;
        let alias = if self.peek() == &TokenKind::Keyword(Keyword::Set) {
            None
        } else {
            self.opt_alias()?
        };
        self.expect_kw(Keyword::Set)?;
        let mut assignments = vec![self.assignment()?];
        while self.accept(&TokenKind::Comma) {
            assignments.push(self.assignment()?);
        }
        let conditions = self.opt_where()?;
        Ok(UpdateStmt {
            prefix,
            table,
            alias,
            assignments,
            conditions,
        })
    }

    fn assignment(&mut self) -> Result<(String, Literal)> {
        let col = self.ident()?;
        self.expect(&TokenKind::Eq)?;
        let value = self.literal()?;
        Ok((col, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_insert_i1() {
        let stmt = parse(
            "insert into Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        )
        .unwrap();
        let Statement::Insert(ins) = stmt else {
            panic!("expected insert")
        };
        assert!(ins.prefix.is_none());
        assert_eq!(ins.table, "Sightings");
        assert_eq!(ins.values.len(), 5);
        assert_eq!(ins.values[2], Literal::Str("bald eagle".into()));
    }

    #[test]
    fn parses_paper_insert_i2_with_negated_prefix() {
        let stmt = parse(
            "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        )
        .unwrap();
        let Statement::Insert(ins) = stmt else {
            panic!()
        };
        let prefix = ins.prefix.unwrap();
        assert!(prefix.negated);
        assert_eq!(prefix.users, vec![UserRef::Name("Bob".into())]);
    }

    #[test]
    fn parses_paper_insert_i7_higher_order() {
        let stmt = parse(
            "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values ('c2','black feathers','s2')",
        )
        .unwrap();
        let Statement::Insert(ins) = stmt else {
            panic!()
        };
        let prefix = ins.prefix.unwrap();
        assert!(!prefix.negated);
        assert_eq!(prefix.users.len(), 2);
        assert_eq!(prefix.users[1], UserRef::Name("Alice".into()));
    }

    #[test]
    fn parses_paper_query_q1() {
        let stmt = parse(
            "select S.sid, S.uid, S.species \
             from Users as U, BELIEF U.uid Sightings as S \
             where U.name = 'Bob' and S.location = 'Lake Placid'",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.items.len(), 3);
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[0].binding(), "U");
        let s = &sel.from[1];
        assert_eq!(s.binding(), "S");
        let prefix = s.prefix.as_ref().unwrap();
        assert_eq!(
            prefix.users,
            vec![UserRef::Column(ColumnRef {
                qualifier: Some("U".into()),
                column: "uid".into()
            })]
        );
        assert_eq!(sel.conditions.len(), 2);
    }

    #[test]
    fn parses_paper_query_q2() {
        let stmt = parse(
            "select U2.name, S1.species, S2.species \
             from Users as U1, Users as U2, \
                  BELIEF U1.uid Sightings as S1, \
                  BELIEF U2.uid Sightings as S2 \
             where U1.name = 'Alice' and S1.sid = S2.sid and S1.species <> S2.species",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.from.len(), 4);
        assert_eq!(sel.conditions.len(), 3);
        assert_eq!(sel.conditions[2].op, CmpOp::Ne);
    }

    #[test]
    fn parses_wildcard_select_and_bare_alias() {
        let stmt = parse("select * from Sightings S where S.sid = 's1'").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.items, vec![SelectItem::Wildcard]);
        assert_eq!(sel.from[0].alias.as_deref(), Some("S"));
    }

    #[test]
    fn parses_delete() {
        let stmt = parse("delete from BELIEF 'Bob' Sightings where sid = 's2'").unwrap();
        let Statement::Delete(del) = stmt else {
            panic!()
        };
        assert_eq!(del.table, "Sightings");
        assert!(!del.prefix.as_ref().unwrap().negated);
        assert_eq!(del.conditions.len(), 1);
        // negated delete
        let stmt = parse("delete from BELIEF 'Bob' not Sightings").unwrap();
        let Statement::Delete(del) = stmt else {
            panic!()
        };
        assert!(del.prefix.unwrap().negated);
        assert!(del.conditions.is_empty());
    }

    #[test]
    fn parses_update() {
        let stmt = parse(
            "update BELIEF 'Alice' Sightings set species = 'raven', location = 'Lake Placid' where sid = 's2'",
        )
        .unwrap();
        let Statement::Update(up) = stmt else {
            panic!()
        };
        assert_eq!(up.assignments.len(), 2);
        assert_eq!(
            up.assignments[0],
            ("species".into(), Literal::Str("raven".into()))
        );
        assert_eq!(up.conditions.len(), 1);
        // without prefix, without where
        let stmt = parse("update Sightings set species = 'crow'").unwrap();
        let Statement::Update(up) = stmt else {
            panic!()
        };
        assert!(up.prefix.is_none());
        assert!(up.conditions.is_empty());
    }

    #[test]
    fn trailing_semicolon_accepted() {
        assert!(parse("select * from S;").is_ok());
    }

    #[test]
    fn parses_sys_qualified_table_names() {
        let stmt = parse("select * from sys.metrics").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.from[0].table, "sys.metrics");
        assert_eq!(sel.from[0].binding(), "sys.metrics");
        // DML positions parse the dotted name too (rejected later with a
        // clean error, not a parse error).
        let Statement::Insert(ins) = parse("insert into sys.metrics values (1)").unwrap() else {
            panic!()
        };
        assert_eq!(ins.table, "sys.metrics");
        let Statement::Delete(del) = parse("delete from sys.metrics").unwrap() else {
            panic!()
        };
        assert_eq!(del.table, "sys.metrics");
        let Statement::Update(up) = parse("update sys.metrics set value = 0").unwrap() else {
            panic!()
        };
        assert_eq!(up.table, "sys.metrics");
    }

    #[test]
    fn parses_order_by_and_limit() {
        let stmt =
            parse("select * from sys.statements order by total_time_ns desc, calls asc limit 5")
                .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.order_by.len(), 2);
        assert_eq!(sel.order_by[0].0.column, "total_time_ns");
        assert!(sel.order_by[0].1, "first key descending");
        assert_eq!(sel.order_by[1].0.column, "calls");
        assert!(!sel.order_by[1].1, "second key ascending");
        assert_eq!(sel.limit, Some(5));
        // Plain ORDER BY defaults ascending; LIMIT stands alone.
        let Statement::Select(sel) = parse("select * from T order by a").unwrap() else {
            panic!()
        };
        assert_eq!(
            sel.order_by,
            vec![(
                ColumnRef {
                    qualifier: None,
                    column: "a".into()
                },
                false
            )]
        );
        assert_eq!(sel.limit, None);
        let Statement::Select(sel) = parse("select * from T limit 0").unwrap() else {
            panic!()
        };
        assert!(sel.order_by.is_empty());
        assert_eq!(sel.limit, Some(0));
        // ORDER/LIMIT are not swallowed as bare aliases, but ordinary
        // bare aliases still work.
        let Statement::Select(sel) = parse("select * from T x order by a limit 1").unwrap() else {
            panic!()
        };
        assert_eq!(sel.from[0].alias.as_deref(), Some("x"));
        // Malformed clauses are parse errors, not silent no-ops.
        assert!(parse("select * from T order a").is_err());
        assert!(parse("select * from T limit").is_err());
        assert!(parse("select * from T limit -1").is_err());
    }

    #[test]
    fn parse_errors_are_informative() {
        let err = parse("select from S").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        let err = parse("insert Sightings values ('x')").unwrap_err();
        assert!(err.to_string().contains("Into") || err.to_string().contains("expected"));
        let err = parse("select * from S where a = ").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        let err = parse("select * from S extra garbage ; more").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
        let err = parse("frobnicate").unwrap_err();
        assert!(err.to_string().contains("SELECT"));
    }

    #[test]
    fn integer_literals_in_conditions_and_values() {
        let stmt = parse("insert into T values (1, -2, 'x')").unwrap();
        let Statement::Insert(ins) = stmt else {
            panic!()
        };
        assert_eq!(ins.values[0], Literal::Int(1));
        assert_eq!(ins.values[1], Literal::Int(-2));
        let stmt = parse("select * from T where a >= 10").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.conditions[0].op, CmpOp::Ge);
    }
}
