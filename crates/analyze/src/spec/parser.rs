//! Recursive-descent parser for the property language.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! prop     := imp
//! imp      := or ( "=>" imp )?            (right-assoc)
//! or       := and ( "||" and )*
//! and      := not ( "&&" not )*
//! not      := "!" not | atom
//! atom     := "true" | "false" | "(" prop ")"
//!           | "minimal" "(" expr ")" | "maximal" "(" expr ")"
//!           | expr cmp expr
//! expr     := term ( ("+"|"-") term )*
//! term     := factor ( "*" factor )*
//! factor   := "-" factor | primary
//! primary  := INT | REAL | "len_G" | "len_w" | "sum_w"
//!           | "w" "(" expr ")"
//!           | fn "(" genref ")"
//!           | genref "(" expr "," expr ")"     (cell access)
//!           | "(" expr ")"
//! genref   := "G" INT | "G" "[" expr "]" | "G" "(" expr ")"? — Gn form
//! ```

use super::ast::{CmpOp, Expr, GenFn, Prop};
use super::lexer::{lex, LexError, Token};
use std::fmt;

/// A parse failure.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// How deep a property may nest (parentheses, `!`, unary `-`, `=>`
/// chains): far beyond any real spec, and shallow enough that the
/// recursive descent cannot overflow a thread's stack.
const MAX_DEPTH: usize = 200;

/// Parses a property string into its AST.
pub fn parse_property(input: &str) -> Result<Prop, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let prop = p.prop()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("trailing tokens starting at {:?}", p.tokens[p.pos]),
        });
    }
    Ok(prop)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, or fails past [`MAX_DEPTH`].
    /// Every recursive cycle of the grammar goes through one of these
    /// calls.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Token) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == t => Ok(()),
            got => Err(ParseError {
                message: format!("expected {t:?}, got {got:?}"),
            }),
        }
    }

    fn prop(&mut self) -> Result<Prop, ParseError> {
        let lhs = self.or_prop()?;
        if self.peek() == Some(&Token::Arrow) {
            self.bump();
            let rhs = self.nested(Self::prop)?; // right-associative
            Ok(Prop::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn or_prop(&mut self) -> Result<Prop, ParseError> {
        let mut lhs = self.and_prop()?;
        while self.peek() == Some(&Token::OrOr) {
            self.bump();
            let rhs = self.and_prop()?;
            lhs = Prop::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_prop(&mut self) -> Result<Prop, ParseError> {
        let mut lhs = self.not_prop()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.bump();
            let rhs = self.not_prop()?;
            lhs = Prop::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_prop(&mut self) -> Result<Prop, ParseError> {
        if self.peek() == Some(&Token::Bang) {
            self.bump();
            let p = self.nested(Self::not_prop)?;
            return Ok(Prop::Not(Box::new(p)));
        }
        self.atom_prop()
    }

    fn atom_prop(&mut self) -> Result<Prop, ParseError> {
        match self.peek() {
            Some(Token::True) => {
                self.bump();
                Ok(Prop::True)
            }
            Some(Token::False) => {
                self.bump();
                Ok(Prop::False)
            }
            Some(Token::Minimal) | Some(Token::Maximal) => {
                let is_min = self.peek() == Some(&Token::Minimal);
                self.bump();
                self.expect(Token::LParen)?;
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(if is_min {
                    Prop::Minimal(e)
                } else {
                    Prop::Maximal(e)
                })
            }
            Some(Token::LParen) => {
                // could be a parenthesized prop or a parenthesized expr
                // followed by a comparison; try prop first by lookahead
                let save = self.pos;
                self.bump();
                if let Ok(p) = self.nested(Self::prop) {
                    if self.peek() == Some(&Token::RParen) {
                        self.bump();
                        // if a comparison operator follows, this was an
                        // expression after all — fall through
                        if self.cmp_op().is_none() {
                            return Ok(p);
                        }
                    }
                }
                self.pos = save;
                self.comparison()
            }
            _ => self.comparison(),
        }
    }

    fn cmp_op(&self) -> Option<CmpOp> {
        match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        }
    }

    fn comparison(&mut self) -> Result<Prop, ParseError> {
        let lhs = self.expr()?;
        let Some(op) = self.cmp_op() else {
            return Err(ParseError {
                message: format!("expected comparison operator, got {:?}", self.peek()),
            });
        };
        self.bump();
        let rhs = self.expr()?;
        // support chained bounds: `2 <= e <= 14` desugars to a conjunction
        if let Some(op2) = self.cmp_op() {
            self.bump();
            let rhs2 = self.expr()?;
            return Ok(Prop::And(
                Box::new(Prop::Cmp(op, lhs, rhs.clone())),
                Box::new(Prop::Cmp(op2, rhs, rhs2)),
            ));
        }
        Ok(Prop::Cmp(op, lhs, rhs))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(Token::Minus) => {
                    self.bump();
                    let rhs = self.term()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.nested(Self::factor)?;
        while self.peek() == Some(&Token::Star) {
            self.bump();
            let rhs = self.nested(Self::factor)?;
            lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Token::Minus) {
            self.bump();
            let e = self.nested(Self::factor)?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.primary()
    }

    fn gen_ref(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Gen(Some(idx))) => Ok(Expr::Int(idx as i64)),
            Some(Token::Gen(None)) => {
                self.expect(Token::LBracket)?;
                let e = self.expr()?;
                self.expect(Token::RBracket)?;
                Ok(e)
            }
            got => Err(ParseError {
                message: format!("expected generator reference, got {got:?}"),
            }),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.bump();
                Ok(Expr::Int(n))
            }
            Some(Token::Real(r)) => {
                self.bump();
                Ok(Expr::Real(r))
            }
            Some(Token::LenG) => {
                self.bump();
                Ok(Expr::LenG)
            }
            Some(Token::LenW) => {
                self.bump();
                Ok(Expr::LenW)
            }
            Some(Token::SumW) => {
                self.bump();
                Ok(Expr::SumW)
            }
            Some(Token::Weight) => {
                self.bump();
                self.expect(Token::LParen)?;
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(Expr::Weight(Box::new(e)))
            }
            Some(Token::LenD) | Some(Token::LenC) | Some(Token::LenOnes) | Some(Token::Md)
            | Some(Token::Corr) => {
                let func = match self.bump() {
                    Some(Token::LenD) => GenFn::LenD,
                    Some(Token::LenC) => GenFn::LenC,
                    Some(Token::LenOnes) => GenFn::LenOnes,
                    Some(Token::Md) => GenFn::Md,
                    Some(Token::Corr) => GenFn::Corr,
                    _ => unreachable!(),
                };
                self.expect(Token::LParen)?;
                let g = self.gen_ref()?;
                self.expect(Token::RParen)?;
                Ok(Expr::GenFn(func, Box::new(g)))
            }
            Some(Token::Gen(_)) => {
                let g = self.gen_ref()?;
                self.expect(Token::LParen)?;
                let row = self.expr()?;
                self.expect(Token::Comma)?;
                let col = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(Expr::Cell {
                    gen: Box::new(g),
                    row: Box::new(row),
                    col: Box::new(col),
                })
            }
            Some(Token::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            got => Err(ParseError {
                message: format!("expected expression, got {got:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_section31_example() {
        let p = parse_property(
            "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 && md(G0) = 3 \
             && minimal(len_c(G0))",
        )
        .unwrap();
        let cs = p.conjuncts();
        assert_eq!(cs.len(), 5);
        assert!(matches!(cs[4], Prop::Minimal(_)));
        assert_eq!(
            cs[1],
            &Prop::Cmp(
                CmpOp::Eq,
                Expr::GenFn(GenFn::LenD, Box::new(Expr::Int(0))),
                Expr::Int(4)
            )
        );
    }

    #[test]
    fn parses_the_table1_template() {
        // §4.2: len_d fixed 4, 2 ≤ len_c ≤ 14, minimal(len_c)
        let p = parse_property(
            "len_d(G0) = 4 && 2 <= len_c(G0) <= 14 && md(G0) = 5 && minimal(len_c(G0))",
        )
        .unwrap();
        // the chained bound desugars into two conjuncts
        assert_eq!(p.conjuncts().len(), 5);
    }

    #[test]
    fn precedence_and_over_or() {
        let p = parse_property("true || false && false").unwrap();
        assert!(matches!(p, Prop::Or(_, _)));
    }

    #[test]
    fn implies_is_right_associative() {
        let p = parse_property("true => false => true").unwrap();
        let Prop::Implies(_, rhs) = p else {
            panic!("not an implication")
        };
        assert!(matches!(*rhs, Prop::Implies(_, _)));
    }

    #[test]
    fn parses_cell_access_and_arith() {
        let p = parse_property("G0(1, 2) + G[1](0, 0) * 2 = 3").unwrap();
        let Prop::Cmp(CmpOp::Eq, lhs, _) = p else {
            panic!()
        };
        assert!(matches!(lhs, Expr::Add(_, _)));
    }

    #[test]
    fn parses_negation_and_parens() {
        let p = parse_property("!(md(G0) = 4)").unwrap();
        assert!(matches!(p, Prop::Not(_)));
        let p = parse_property("(true)").unwrap();
        assert_eq!(p, Prop::True);
    }

    #[test]
    fn parses_weights_and_sums() {
        let p = parse_property("w(0) * 2 < sum_w && len_w = 16").unwrap();
        assert_eq!(p.conjuncts().len(), 2);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let n = 100_000;
        for src in [
            format!("{}md(G0) = 3{}", "(".repeat(n), ")".repeat(n)),
            format!("{}md(G0) = 3", "!".repeat(n)),
            format!("md(G0) = {}3", "-".repeat(n)),
            format!("{}true", "true => ".repeat(n)),
        ] {
            let e = parse_property(&src).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
        // the limit itself still parses
        let src = format!("{}true{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(parse_property(&src), Ok(Prop::True));
    }

    #[test]
    fn parses_unary_minus() {
        let p = parse_property("-1 < 0").unwrap();
        assert_eq!(
            p,
            Prop::Cmp(CmpOp::Lt, Expr::Neg(Box::new(Expr::Int(1))), Expr::Int(0))
        );
    }

    #[test]
    fn parses_corr_extension() {
        let p = parse_property("corr(G0) >= 2 && minimal(len_c(G0))").unwrap();
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(
            p.conjuncts()[0],
            &Prop::Cmp(
                CmpOp::Ge,
                Expr::GenFn(GenFn::Corr, Box::new(Expr::Int(0))),
                Expr::Int(2)
            )
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_property("len_d(G0) =").is_err());
        assert!(parse_property("md(3)").is_err());
        assert!(parse_property("true &&").is_err());
        assert!(parse_property("1 = 1 extra").is_err());
        assert!(parse_property("").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let src = "len_d(G[0]) = 4 && minimal(len_c(G[0]))";
        let p = parse_property(src).unwrap();
        let reparsed = parse_property(&p.to_string()).unwrap();
        assert_eq!(p, reparsed);
    }

    mod roundtrip {
        use super::super::*;
        use proptest::prelude::*;

        fn arb_expr() -> impl Strategy<Value = Expr> {
            let leaf = prop_oneof![
                (0i64..100).prop_map(Expr::Int),
                Just(Expr::LenG),
                Just(Expr::LenW),
                Just(Expr::SumW),
                (0usize..4).prop_map(|i| Expr::GenFn(GenFn::LenC, Box::new(Expr::Int(i as i64)))),
                (0usize..4).prop_map(|i| Expr::GenFn(GenFn::Md, Box::new(Expr::Int(i as i64)))),
                (0i64..16).prop_map(|i| Expr::Weight(Box::new(Expr::Int(i)))),
            ];
            leaf.prop_recursive(3, 24, 3, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
                    inner.prop_map(|a| Expr::Neg(Box::new(a))),
                ]
            })
        }

        fn arb_prop() -> impl Strategy<Value = Prop> {
            let cmp = (
                arb_expr(),
                prop_oneof![
                    Just(CmpOp::Eq),
                    Just(CmpOp::Ne),
                    Just(CmpOp::Lt),
                    Just(CmpOp::Gt),
                    Just(CmpOp::Le),
                    Just(CmpOp::Ge)
                ],
                arb_expr(),
            )
                .prop_map(|(a, op, b)| Prop::Cmp(op, a, b));
            let leaf = prop_oneof![Just(Prop::True), Just(Prop::False), cmp];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Prop::And(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Prop::Or(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Prop::Implies(Box::new(a), Box::new(b))),
                    inner.prop_map(|a| Prop::Not(Box::new(a))),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// Pretty-printing then re-parsing any AST yields the same
            /// AST (Display emits full parentheses, so precedence can not
            /// drift).
            #[test]
            fn prop_display_parse_round_trip(p in arb_prop()) {
                let printed = p.to_string();
                let reparsed = parse_property(&printed)
                    .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
                prop_assert_eq!(reparsed, p);
            }
        }
    }
}
