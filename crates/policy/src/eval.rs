//! Evaluation of condition expressions against an action environment.

use crate::ast::{CmpOp, Expr, Operand};
use crate::attr::{AttrRef, Attributes};
use crate::{PolicyError, Result};

/// How to treat attributes that are referenced by the expression but missing
/// from the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MissingAttr {
    /// Treat the comparison/test containing the missing attribute as false
    /// (KeyNote's behaviour: unknown attributes evaluate to the empty
    /// string / zero, which makes most guards fail closed).
    #[default]
    FailClosed,
    /// Report an error.
    Strict,
}

/// Evaluate `expr` against `env`. Operands are compared by reference:
/// nothing is cloned or allocated unless an error message is built.
pub fn evaluate<A: Attributes + ?Sized>(
    expr: &Expr,
    env: &A,
    missing: MissingAttr,
) -> Result<bool> {
    match expr {
        Expr::True => Ok(true),
        Expr::False => Ok(false),
        Expr::Test(op) => match resolve(op, env, missing)? {
            Some(v) => Ok(v.truthy()),
            None => Ok(false),
        },
        Expr::Cmp { lhs, op, rhs } => {
            let l = resolve(lhs, env, missing)?;
            let r = resolve(rhs, env, missing)?;
            match (l, r) {
                (Some(l), Some(r)) => compare(l, *op, r),
                _ => Ok(false),
            }
        }
        Expr::And(a, b) => Ok(evaluate(a, env, missing)? && evaluate(b, env, missing)?),
        Expr::Or(a, b) => Ok(evaluate(a, env, missing)? || evaluate(b, env, missing)?),
        Expr::Not(inner) => Ok(!evaluate(inner, env, missing)?),
    }
}

fn resolve<'a, A: Attributes + ?Sized>(
    operand: &'a Operand,
    env: &'a A,
    missing: MissingAttr,
) -> Result<Option<AttrRef<'a>>> {
    match operand {
        Operand::Int(v) => Ok(Some(AttrRef::Int(*v))),
        Operand::Str(s) => Ok(Some(AttrRef::Str(s))),
        Operand::Bool(b) => Ok(Some(AttrRef::Bool(*b))),
        Operand::Attr(name) => match env.attr(name) {
            Some(v) => Ok(Some(v)),
            None => match missing {
                MissingAttr::FailClosed => Ok(None),
                MissingAttr::Strict => Err(PolicyError::EvalError {
                    message: format!("unknown attribute `{name}`"),
                }),
            },
        },
    }
}

fn compare(l: AttrRef<'_>, op: CmpOp, r: AttrRef<'_>) -> Result<bool> {
    use std::cmp::Ordering;
    let ordering: Option<Ordering> = match (l, r) {
        (AttrRef::Int(a), AttrRef::Int(b)) => Some(a.cmp(&b)),
        (AttrRef::Str(a), AttrRef::Str(b)) => Some(a.cmp(b)),
        (AttrRef::Bool(a), AttrRef::Bool(b)) => Some(a.cmp(&b)),
        _ => None,
    };
    match ordering {
        None => match op {
            // Cross-type equality is false, inequality is true; ordered
            // comparison across types is an error.
            CmpOp::Eq => Ok(false),
            CmpOp::Ne => Ok(true),
            _ => Err(PolicyError::EvalError {
                message: format!(
                    "cannot order values of different types ({} vs {})",
                    l.type_name(),
                    r.type_name()
                ),
            }),
        },
        Some(ord) => Ok(match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Environment;
    use crate::parser::parse;

    fn env() -> Environment {
        Environment::new()
            .with("uid", 1000i64)
            .with("module", "libc")
            .with("is_admin", false)
            .with("calls", 42i64)
    }

    fn eval(src: &str) -> bool {
        evaluate(&parse(src).unwrap(), &env(), MissingAttr::FailClosed).unwrap()
    }

    #[test]
    fn constants() {
        assert!(eval("true"));
        assert!(!eval("false"));
        assert!(eval(""));
    }

    #[test]
    fn integer_comparisons() {
        assert!(eval("uid == 1000"));
        assert!(!eval("uid != 1000"));
        assert!(eval("uid >= 1000"));
        assert!(eval("uid <= 1000"));
        assert!(!eval("uid < 1000"));
        assert!(!eval("uid > 1000"));
        assert!(eval("calls < 100"));
    }

    #[test]
    fn string_comparisons() {
        assert!(eval("module == \"libc\""));
        assert!(!eval("module == \"libm\""));
        assert!(eval("module != \"libm\""));
        assert!(eval("module < \"libz\""));
    }

    #[test]
    fn boolean_connectives() {
        assert!(eval("uid == 1000 && module == \"libc\""));
        assert!(!eval("uid == 1000 && module == \"libm\""));
        assert!(eval("uid == 0 || module == \"libc\""));
        assert!(eval("!(uid == 0)"));
        assert!(!eval("!is_admin && false"));
        assert!(eval("!is_admin"));
    }

    #[test]
    fn missing_attributes_fail_closed() {
        assert!(!eval("nonexistent == 1"));
        assert!(!eval("nonexistent"));
        // But a negated missing test succeeds (fails closed at the leaf).
        assert!(eval("!(nonexistent == 1)"));
    }

    #[test]
    fn missing_attributes_strict_mode_errors() {
        let e = parse("nonexistent == 1").unwrap();
        assert!(evaluate(&e, &env(), MissingAttr::Strict).is_err());
        // Known attributes still fine in strict mode.
        let ok = parse("uid == 1000").unwrap();
        assert!(evaluate(&ok, &env(), MissingAttr::Strict).unwrap());
    }

    #[test]
    fn cross_type_comparisons() {
        assert!(!eval("uid == \"libc\""));
        assert!(eval("uid != \"libc\""));
        let e = parse("uid < \"libc\"").unwrap();
        assert!(evaluate(&e, &env(), MissingAttr::FailClosed).is_err());
    }

    #[test]
    fn paper_style_policy_evaluates() {
        let policy = "uid >= 1000 && uid < 2000 && module == \"libc\" && !is_admin";
        assert!(eval(policy));
        let stricter = "uid >= 1000 && uid < 2000 && module == \"libcrypto\"";
        assert!(!eval(stricter));
    }

    #[test]
    fn synthetic_conjunction_matches_generated_environment() {
        // attr_i == i for every i — the benchmark workload.
        for n in [1usize, 4, 16, 64] {
            let expr = crate::ast::tests::synthetic_conjunction(n);
            let mut env = Environment::new();
            for i in 0..n {
                env.set(&format!("attr_{i}"), i as i64);
            }
            assert!(evaluate(&expr, &env, MissingAttr::FailClosed).unwrap());
            // Perturb one attribute: the conjunction must fail.
            env.set("attr_0", 999i64);
            assert!(!evaluate(&expr, &env, MissingAttr::FailClosed).unwrap());
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_not_is_involutive(uid in 0i64..5000) {
            let env = Environment::new().with("uid", uid);
            let e = parse("uid >= 1000").unwrap();
            let ne = parse("!(uid >= 1000)").unwrap();
            let a = evaluate(&e, &env, MissingAttr::FailClosed).unwrap();
            let b = evaluate(&ne, &env, MissingAttr::FailClosed).unwrap();
            proptest::prop_assert_ne!(a, b);
        }

        #[test]
        fn prop_comparison_trichotomy(a in -100i64..100, b in -100i64..100) {
            let env = Environment::new().with("a", a).with("b", b);
            let lt = evaluate(&parse("a < b").unwrap(), &env, MissingAttr::Strict).unwrap();
            let eq = evaluate(&parse("a == b").unwrap(), &env, MissingAttr::Strict).unwrap();
            let gt = evaluate(&parse("a > b").unwrap(), &env, MissingAttr::Strict).unwrap();
            proptest::prop_assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
        }
    }
}
