//! Recursive-descent parser for condition expressions.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := or
//! or      := and ( "||" and )*
//! and     := unary ( "&&" unary )*
//! unary   := "!" unary | primary
//! primary := "(" expr ")" | operand ( cmp-op operand )?
//! operand := IDENT | INT | STRING | "true" | "false"
//! ```

use crate::ast::{CmpOp, Expr, Operand};
use crate::lexer::{tokenize, Token};
use crate::{PolicyError, Result};

/// Parse a condition expression from text.
pub fn parse(input: &str) -> Result<Expr> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        // An empty condition field means "always allowed" (the paper's
        // baseline policy).
        return Ok(Expr::True);
    }
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.parse_or()?;
    if p.pos != p.tokens.len() {
        return Err(PolicyError::ParseError {
            message: format!("unexpected trailing tokens at position {}", p.pos),
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
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

    fn expect(&mut self, expected: &Token) -> Result<()> {
        match self.bump() {
            Some(ref t) if t == expected => Ok(()),
            other => Err(PolicyError::ParseError {
                message: format!("expected {expected:?}, found {other:?}"),
            }),
        }
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Token::Or) {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while self.peek() == Some(&Token::And) {
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Token::Not) {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            let inner = self.parse_or()?;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        let lhs = self.parse_operand()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            None => {
                // Bare operand: boolean test, or the true/false literals.
                Ok(match lhs {
                    Operand::Bool(true) => Expr::True,
                    Operand::Bool(false) => Expr::False,
                    other => Expr::Test(other),
                })
            }
            Some(op) => {
                self.bump();
                let rhs = self.parse_operand()?;
                Ok(Expr::Cmp { lhs, op, rhs })
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand> {
        match self.bump() {
            Some(Token::Ident(name)) => match name.as_str() {
                "true" => Ok(Operand::Bool(true)),
                "false" => Ok(Operand::Bool(false)),
                _ => Ok(Operand::Attr(name)),
            },
            Some(Token::Int(v)) => Ok(Operand::Int(v)),
            Some(Token::Str(s)) => Ok(Operand::Str(s)),
            other => Err(PolicyError::ParseError {
                message: format!("expected an operand, found {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_condition_is_always_allowed() {
        assert_eq!(parse("").unwrap(), Expr::True);
        assert_eq!(parse("   ").unwrap(), Expr::True);
    }

    #[test]
    fn parses_literals() {
        assert_eq!(parse("true").unwrap(), Expr::True);
        assert_eq!(parse("false").unwrap(), Expr::False);
    }

    #[test]
    fn parses_simple_comparison() {
        let e = parse("uid == 1000").unwrap();
        assert_eq!(
            e,
            Expr::Cmp {
                lhs: Operand::Attr("uid".into()),
                op: CmpOp::Eq,
                rhs: Operand::Int(1000)
            }
        );
    }

    #[test]
    fn parses_string_comparison() {
        let e = parse("module == \"libc\"").unwrap();
        assert!(matches!(e, Expr::Cmp { rhs: Operand::Str(ref s), .. } if s == "libc"));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse("a == 1 || b == 2 && c == 3").unwrap();
        match e {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("expected Or at the top, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let e = parse("(a == 1 || b == 2) && c == 3").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn negation_and_nesting() {
        let e = parse("!(uid == 0) && !locked").unwrap();
        assert!(matches!(e, Expr::And(_, _)));
        assert_eq!(e.complexity(), 5);
    }

    #[test]
    fn bare_attribute_is_boolean_test() {
        let e = parse("is_admin").unwrap();
        assert_eq!(e, Expr::Test(Operand::Attr("is_admin".into())));
    }

    #[test]
    fn rejects_malformed_expressions() {
        assert!(parse("uid ==").is_err());
        assert!(parse("== 5").is_err());
        assert!(parse("(a == 1").is_err());
        assert!(parse("a == 1)").is_err());
        assert!(parse("a == 1 &&").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("&&").is_err());
    }

    #[test]
    fn parses_the_paper_style_policy() {
        // The kind of policy §1 motivates: certain uid range, certain module,
        // and a certified app domain.
        let e = parse(
            "uid >= 1000 && uid < 2000 && module == \"libcrypto\" && app_domain == \"payroll\"",
        )
        .unwrap();
        assert_eq!(e.complexity(), 7);
    }

    #[test]
    fn display_of_parsed_expression_reparses_to_same_ast() {
        let original =
            parse("(uid >= 1000 || is_admin) && module == \"libc\" && !blocked").unwrap();
        let reparsed = parse(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    proptest::proptest! {
        #[test]
        fn prop_synthetic_conjunctions_roundtrip(n in 0usize..40) {
            let expr = crate::ast::tests::synthetic_conjunction(n);
            let reparsed = parse(&expr.to_string()).unwrap();
            proptest::prop_assert_eq!(expr, reparsed);
        }
    }
}
