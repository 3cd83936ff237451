//! Abstract syntax tree for condition expressions.

use serde::{Deserialize, Serialize};

/// A comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A literal or attribute reference appearing as a comparison operand.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// An attribute reference, resolved against the action environment.
    Attr(String),
    /// An integer literal.
    Int(i64),
    /// A string literal.
    Str(String),
    /// A boolean literal.
    Bool(bool),
}

/// A condition expression.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// The constant `true` (the paper's "always allowed" policy).
    True,
    /// The constant `false`.
    False,
    /// An operand used as a boolean (truthiness of an attribute).
    Test(Operand),
    /// A binary comparison.
    Cmp {
        /// Left operand.
        lhs: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Operand,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Number of nodes in the expression tree — the "policy complexity"
    /// metric used by the ablation benchmark.
    pub fn complexity(&self) -> usize {
        match self {
            Expr::True | Expr::False | Expr::Test(_) => 1,
            Expr::Cmp { .. } => 1,
            Expr::And(a, b) | Expr::Or(a, b) => 1 + a.complexity() + b.complexity(),
            Expr::Not(inner) => 1 + inner.complexity(),
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
            Expr::Test(op) => write!(f, "{op}"),
            Expr::Cmp { lhs, op, rhs } => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{lhs} {sym} {rhs}")
            }
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(inner) => write!(f, "!({inner})"),
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Attr(name) => write!(f, "{name}"),
            Operand::Int(v) => write!(f, "{v}"),
            Operand::Str(s) => write!(f, "\"{s}\""),
            Operand::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A conjunction of `n` independent comparisons over attributes
    /// `attr_0 … attr_{n-1}`, requiring `attr_i == i`: a policy of
    /// controlled complexity.
    pub(crate) fn synthetic_conjunction(n: usize) -> Expr {
        if n == 0 {
            return Expr::True;
        }
        let mut expr = Expr::Cmp {
            lhs: Operand::Attr("attr_0".to_string()),
            op: CmpOp::Eq,
            rhs: Operand::Int(0),
        };
        for i in 1..n {
            expr = Expr::And(
                Box::new(expr),
                Box::new(Expr::Cmp {
                    lhs: Operand::Attr(format!("attr_{i}")),
                    op: CmpOp::Eq,
                    rhs: Operand::Int(i as i64),
                }),
            );
        }
        expr
    }

    #[test]
    fn complexity_counts_nodes() {
        assert_eq!(Expr::True.complexity(), 1);
        let cmp = Expr::Cmp {
            lhs: Operand::Attr("a".into()),
            op: CmpOp::Eq,
            rhs: Operand::Int(1),
        };
        assert_eq!(cmp.complexity(), 1);
        let and = Expr::And(Box::new(cmp.clone()), Box::new(Expr::Not(Box::new(cmp))));
        assert_eq!(and.complexity(), 4);
    }

    #[test]
    fn synthetic_conjunction_scales() {
        assert_eq!(synthetic_conjunction(0), Expr::True);
        assert_eq!(synthetic_conjunction(1).complexity(), 1);
        assert_eq!(synthetic_conjunction(5).complexity(), 9); // 5 leaves + 4 ands
        assert_eq!(synthetic_conjunction(32).complexity(), 63);
    }

    #[test]
    fn display_roundtrips_through_parser_syntax() {
        let e = Expr::And(
            Box::new(Expr::Cmp {
                lhs: Operand::Attr("uid".into()),
                op: CmpOp::Le,
                rhs: Operand::Int(1000),
            }),
            Box::new(Expr::Cmp {
                lhs: Operand::Attr("module".into()),
                op: CmpOp::Eq,
                rhs: Operand::Str("libc".into()),
            }),
        );
        let text = e.to_string();
        assert!(text.contains("uid <= 1000"));
        assert!(text.contains("module == \"libc\""));
    }
}
