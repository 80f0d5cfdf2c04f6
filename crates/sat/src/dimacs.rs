//! DIMACS CNF parsing and emission, for interoperability and test fixtures.

use crate::types::{Lit, Var};

/// A parsed CNF: number of variables and the clause list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cnf {
    pub num_vars: usize,
    pub clauses: Vec<Vec<Lit>>,
}

/// Parses DIMACS CNF text.
///
/// Accepts comment lines (`c ...`), an optional `p cnf V C` header, and
/// zero-terminated clause lines. `num_vars` is the larger of the
/// header's count and the largest variable a literal names. Returns an
/// error string describing the first malformed token, including a
/// variable or count beyond `2^31`, the most a [`Lit`] can hold.
pub fn parse_dimacs(text: &str) -> Result<Cnf, String> {
    // variables are numbered from 1 in DIMACS
    const MAX_VARS: usize = Var::MAX_INDEX + 1;
    let mut num_vars = 0usize;
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(format!("line {}: malformed problem line", lineno + 1));
            }
            let count: usize = parts[1]
                .parse()
                .map_err(|_| format!("line {}: bad variable count", lineno + 1))?;
            if count > MAX_VARS {
                return Err(format!(
                    "line {}: variable count {count} is above {MAX_VARS}",
                    lineno + 1
                ));
            }
            num_vars = num_vars.max(count);
            continue;
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok
                .parse()
                .map_err(|_| format!("line {}: bad literal {tok:?}", lineno + 1))?;
            if n == 0 {
                clauses.push(std::mem::take(&mut current));
            } else if n.unsigned_abs() > MAX_VARS as u64 {
                return Err(format!(
                    "line {}: literal {n} names a variable above {MAX_VARS}",
                    lineno + 1
                ));
            } else {
                let idx = (n.unsigned_abs() - 1) as usize;
                num_vars = num_vars.max(idx + 1);
                current.push(Lit::with_sign(Var::from_index(idx), n > 0));
            }
        }
    }
    if !current.is_empty() {
        clauses.push(current);
    }
    Ok(Cnf { num_vars, clauses })
}

/// Emits DIMACS CNF text for a clause list over `num_vars` variables.
pub fn to_dimacs(num_vars: usize, clauses: &[Vec<Lit>]) -> String {
    let mut out = format!("p cnf {} {}\n", num_vars, clauses.len());
    for c in clauses {
        for l in c {
            out.push_str(&l.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn parse_simple() {
        let cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0][1], Lit::neg(Var::from_index(1)));
    }

    #[test]
    fn parse_without_header_infers_vars() {
        let cnf = parse_dimacs("1 5 0\n-5 0").unwrap();
        assert_eq!(cnf.num_vars, 5);
        assert_eq!(cnf.clauses.len(), 2);
        // a later, smaller header does not shrink the inferred count
        assert_eq!(parse_dimacs("5 0\np cnf 3 1\n").unwrap().num_vars, 5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_dimacs("1 x 0").is_err());
        assert!(parse_dimacs("p cnf oops 2").is_err());
        // beyond the largest variable a literal can hold: an error, not
        // an alias of variable 1 (or a panic)
        assert!(parse_dimacs("2147483649 0").is_err());
        assert!(parse_dimacs("-2147483649 0").is_err());
        assert!(parse_dimacs("5000000000 0").is_err());
        assert!(parse_dimacs("p cnf 2147483649 1").is_err());
        // the largest variable itself still parses
        let cnf = parse_dimacs("-2147483648 0").unwrap();
        assert_eq!(cnf.num_vars, 2147483648);
        assert_eq!(cnf.clauses[0], [Lit::neg(Var::from_index(Var::MAX_INDEX))]);
    }

    /// One whitespace-separated DIMACS token: small literals, values
    /// around the `Lit` packing limit, arbitrary integers, and words
    /// that are not literals.
    fn token() -> impl Strategy<Value = String> {
        prop_oneof![
            (-9i64..=9).prop_map(|n| n.to_string()),
            (-3i64..=3).prop_map(|d| (2147483648 + d).to_string()),
            (-3i64..=3).prop_map(|d| (-2147483648 - d).to_string()),
            any::<i64>().prop_map(|n| n.to_string()),
            prop_oneof![
                Just("p"),
                Just("cnf"),
                Just("c"),
                Just("x"),
                Just("-"),
                Just("+3"),
                Just("1e3"),
                Just("99999999999999999999"),
            ]
            .prop_map(String::from),
        ]
    }

    /// DIMACS-like text: token lines mixed with problem lines whose
    /// counts straddle the limit.
    fn dimacs_text() -> impl Strategy<Value = String> {
        let header = prop_oneof![
            (0usize..12).prop_map(|n| n.to_string()),
            (0usize..4).prop_map(|d| (2147483647 + d).to_string()),
            any::<u64>().prop_map(|n| n.to_string()),
        ]
        .prop_map(|count| format!("p cnf {count} 1"));
        // token lines twice as often as problem lines
        let line = prop_oneof![
            collection::vec(token(), 0..8).prop_map(|ts| ts.join(" ")),
            collection::vec(token(), 0..8).prop_map(|ts| ts.join(" ")),
            header,
        ];
        collection::vec(line, 0..10).prop_map(|ls| ls.join("\n"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_parse_is_total_and_in_range(text in dimacs_text()) {
            // a panic fails the test; every accepted literal must name
            // a declared variable
            if let Ok(cnf) = parse_dimacs(&text) {
                for l in cnf.clauses.iter().flatten() {
                    prop_assert!(
                        l.var().index() < cnf.num_vars,
                        "{text:?}: {l:?} outside {} variables",
                        cnf.num_vars
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 2 2\n1 -2 0\n-1 2 0\n";
        let cnf = parse_dimacs(text).unwrap();
        assert_eq!(to_dimacs(cnf.num_vars, &cnf.clauses), text);
    }

    #[test]
    fn parsed_instance_solves() {
        let cnf = parse_dimacs("p cnf 2 3\n1 2 0\n-1 0\n-2 -1 0\n").unwrap();
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars {
            s.new_var();
        }
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var::from_index(0)), Some(false));
        assert_eq!(s.value(Var::from_index(1)), Some(true));
    }
}
