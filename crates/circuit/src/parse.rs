//! Parsing of *emitted* encoder sources back into an analyzable form.
//!
//! This is deliberately not a C or Rust front-end: the emitters produce
//! a tiny straight-line language (declarations, `=`/`|=`/`^=`
//! assignments over `&`/`^`/`|`/shift expressions, one return), and the
//! parser accepts exactly that subset — plus the *non-linear* operators
//! (`+ - * / % ~ !`), which are lexed and parsed so the abstract
//! interpreter can reject them as a typed `non-linear-op` lint with the
//! offending operator in the message, rather than a generic parse
//! failure. Anything else (unknown tokens, malformed statements, a
//! missing `encode_checks`) is a `parse`-class error.

use crate::interp::Lang;

/// A parsed expression.
#[derive(Clone, Debug)]
pub(crate) enum Expr {
    /// An integer literal (suffixes stripped).
    Num(u64),
    /// A named value: the data parameter or a local.
    Var(String),
    /// `d[w]` — one word of a wide data parameter.
    Index(String, usize),
    /// Unary `~` / `!`.
    Not(Box<Expr>),
    /// A chain `e0 op1 e1 op2 e2 …` of binary operators, evaluated left
    /// to right as `((e0 op1 e1) op2 e2) …`. The precedence climber
    /// builds each chain in one loop, so a long flat chain such as
    /// `d ^ d ^ … ^ d` is one node: no walker (and no `Drop`) descends
    /// once per term.
    Chain(Box<Expr>, Vec<(BinOp, Expr)>),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BinOp {
    Xor,
    And,
    Or,
    Shl,
    Shr,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl BinOp {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Xor => "^",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AssignOp {
    /// `=`
    Set,
    /// `|=`
    OrEq,
    /// `^=`
    XorEq,
}

/// One statement of the `encode_checks` body.
#[derive(Clone, Debug)]
pub(crate) enum Stmt {
    /// A local declaration, with or without an initializer
    /// (`uint64_t b;` / `let t0 = ...;`).
    Decl {
        name: String,
        init: Option<Expr>,
    },
    Assign {
        name: String,
        op: AssignOp,
        expr: Expr,
    },
    Return {
        expr: Expr,
    },
}

/// The shape of the data parameter in the source signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ParamShape {
    /// `uint64_t d` / `d: u64`
    Scalar,
    /// `const uint64_t d[W]` / `d: &[u64; W]`
    Array(usize),
}

/// A parsed `encode_checks` function.
#[derive(Debug)]
pub(crate) struct Func {
    pub(crate) param: String,
    pub(crate) shape: ParamShape,
    pub(crate) stmts: Vec<Stmt>,
}

/// Parses the `encode_checks` function out of a full emitted source
/// file. Errors are human-readable strings; the interpreter wraps them
/// into `parse`-class diagnostics.
pub(crate) fn parse_encode_checks(src: &str, lang: Lang) -> Result<Func, String> {
    let clean = strip_comments(src);
    let (sig, body) = extract_function(&clean, "encode_checks")?;
    let (param, shape) = parse_signature(&sig, lang)?;
    let toks = lex(&body)?;
    let stmts = parse_stmts(&toks, lang)?;
    Ok(Func {
        param,
        shape,
        stmts,
    })
}

/// Removes `/* */` and `//`-style comments (string literals are copied
/// verbatim so comment markers inside them are inert).
fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                out.push('"');
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out.push(bytes[i] as char);
                        i += 1;
                    }
                    out.push(bytes[i] as char);
                    i += 1;
                }
                if i < bytes.len() {
                    out.push('"');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                out.push(' ');
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// Finds the *definition* `name ( params ) { body }` (skipping mere
/// call sites) and returns the parameter text and the body text.
fn extract_function(src: &str, name: &str) -> Result<(String, String), String> {
    let mut search = 0;
    while let Some(p) = src[search..].find(name) {
        let at = search + p;
        search = at + name.len();
        // reject a hit inside a longer identifier
        if at > 0 {
            let prev = src.as_bytes()[at - 1] as char;
            if prev.is_ascii_alphanumeric() || prev == '_' {
                continue;
            }
        }
        let Some(rel_open) = src[search..].find(|c: char| !c.is_whitespace()) else {
            continue;
        };
        let open = search + rel_open;
        if src.as_bytes()[open] != b'(' {
            continue;
        }
        let close = match_delim(src, open, '(', ')')?;
        let Some(rel_brace) = src[close + 1..].find('{') else {
            continue;
        };
        // between `)` and `{` only whitespace or a Rust `-> u64` may appear
        let between = src[close + 1..close + 1 + rel_brace].trim();
        if !(between.is_empty() || between.starts_with("->")) {
            continue;
        }
        let bopen = close + 1 + rel_brace;
        let bclose = match_delim(src, bopen, '{', '}')?;
        return Ok((
            src[open + 1..close].to_string(),
            src[bopen + 1..bclose].to_string(),
        ));
    }
    Err(format!("no `{name}` function definition found"))
}

/// Returns the index of the delimiter matching `src[open]`.
fn match_delim(src: &str, open: usize, lo: char, hi: char) -> Result<usize, String> {
    let mut depth = 0usize;
    for (i, ch) in src[open..].char_indices() {
        if ch == lo {
            depth += 1;
        } else if ch == hi {
            depth -= 1;
            if depth == 0 {
                return Ok(open + i);
            }
        }
    }
    Err(format!("unbalanced `{lo}…{hi}`"))
}

/// Parses the parameter list: exactly one data parameter, scalar or
/// word-array.
fn parse_signature(sig: &str, lang: Lang) -> Result<(String, ParamShape), String> {
    let sig = sig.trim();
    match lang {
        Lang::C => {
            // `uint64_t d` or `const uint64_t d[W]`
            let decl = sig
                .rsplit(|c: char| c.is_whitespace())
                .next()
                .filter(|w| !w.is_empty())
                .ok_or("empty parameter list")?;
            if let Some(open) = decl.find('[') {
                let close = decl[open..]
                    .find(']')
                    .map(|c| open + c)
                    .ok_or("unbalanced `[` in parameter")?;
                let w: usize = decl[open + 1..close]
                    .parse()
                    .map_err(|_| format!("bad array length in `{decl}`"))?;
                Ok((decl[..open].to_string(), ParamShape::Array(w)))
            } else {
                Ok((decl.to_string(), ParamShape::Scalar))
            }
        }
        Lang::Rust => {
            // `d: u64` or `d: &[u64; W]`
            let (name, ty) = sig
                .split_once(':')
                .ok_or_else(|| format!("expected `name: type` parameter, got `{sig}`"))?;
            let ty: String = ty.chars().filter(|c| !c.is_whitespace()).collect();
            if let Some(rest) = ty.strip_prefix("&[u64;") {
                let w: usize = rest
                    .trim_end_matches(']')
                    .parse()
                    .map_err(|_| format!("bad array length in `{ty}`"))?;
                Ok((name.trim().to_string(), ParamShape::Array(w)))
            } else if ty == "u64" {
                Ok((name.trim().to_string(), ParamShape::Scalar))
            } else {
                Err(format!("unsupported parameter type `{ty}`"))
            }
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Num(u64),
    Punct(&'static str),
}

/// Splits source text into tokens. Only ASCII can start a token, so `i`
/// stays on a char boundary and a stray non-ASCII character is an error
/// naming it.
fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok::Ident(src[start..i].to_string()));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            toks.push(Tok::Num(parse_literal(&src[start..i])?));
            continue;
        }
        if i + 1 < b.len() {
            let two = &b[i..i + 2];
            if let Some(t) = ["<<", ">>", "|=", "^=", "&=", "+="]
                .into_iter()
                .find(|p| p.as_bytes() == two)
            {
                toks.push(Tok::Punct(t));
                i += 2;
                continue;
            }
        }
        let one = [
            "(", ")", "[", "]", ";", ",", "=", "^", "&", "|", "+", "-", "*", "/", "%", "~", "!",
            ":",
        ]
        .into_iter()
        .find(|p| p.as_bytes()[0] == b[i])
        .ok_or_else(|| {
            let c = src[i..].chars().next().unwrap_or(c);
            format!("unexpected character `{c}`")
        })?;
        toks.push(Tok::Punct(one));
        i += 1;
    }
    Ok(toks)
}

/// Parses an integer literal with C (`ull`, `u`, `l`) or Rust (`u64`,
/// `_` separators) decoration, decimal or `0x` hex.
fn parse_literal(lit: &str) -> Result<u64, String> {
    let s: String = lit.chars().filter(|&c| c != '_').collect();
    let lower = s.to_ascii_lowercase();
    let (digits, radix) = match lower.strip_prefix("0x") {
        Some(hex) => (hex.to_string(), 16),
        None => (lower, 10),
    };
    let digits = digits.trim_end_matches("u64").trim_end_matches(['u', 'l']);
    u64::from_str_radix(digits, radix).map_err(|_| format!("bad integer literal `{lit}`"))
}

/// How deep an expression may nest (parentheses, `~`, `!`): far beyond
/// anything the emitters write, and shallow enough that the recursive
/// descent cannot overflow a thread's stack.
const MAX_DEPTH: usize = 200;

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_punct(&self) -> Option<&'static str> {
        match self.peek() {
            Some(Tok::Punct(p)) => Some(p),
            _ => None,
        }
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek_punct() == Some(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), String> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(format!("expected `{p}`, got {:?}", self.peek()))
        }
    }
}

fn parse_stmts(toks: &[Tok], lang: Lang) -> Result<Vec<Stmt>, String> {
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while let Some(tok) = p.peek() {
        match tok {
            Tok::Ident(kw) if kw == "return" => {
                p.bump();
                let expr = parse_expr(&mut p, 0)?;
                p.expect_punct(";")?;
                stmts.push(Stmt::Return { expr });
            }
            Tok::Ident(kw) if lang == Lang::C && kw == "uint64_t" => {
                p.bump();
                loop {
                    let name = ident(&mut p)?;
                    let init = if p.eat_punct("=") {
                        Some(parse_expr(&mut p, 0)?)
                    } else {
                        None
                    };
                    stmts.push(Stmt::Decl { name, init });
                    if p.eat_punct(",") {
                        continue;
                    }
                    p.expect_punct(";")?;
                    break;
                }
            }
            Tok::Ident(kw) if lang == Lang::Rust && kw == "let" => {
                p.bump();
                if matches!(p.peek(), Some(Tok::Ident(m)) if m == "mut") {
                    p.bump();
                }
                let name = ident(&mut p)?;
                if p.eat_punct(":") {
                    ident(&mut p)?; // type annotation
                }
                p.expect_punct("=")?;
                let init = parse_expr(&mut p, 0)?;
                p.expect_punct(";")?;
                stmts.push(Stmt::Decl {
                    name,
                    init: Some(init),
                });
            }
            Tok::Ident(_) => {
                // `name <op>= expr ;`, or Rust's trailing-expression
                // return (a bare identifier closing the body).
                let name = ident(&mut p)?;
                let op = match p.bump() {
                    Some(Tok::Punct("=")) => AssignOp::Set,
                    Some(Tok::Punct("|=")) => AssignOp::OrEq,
                    Some(Tok::Punct("^=")) => AssignOp::XorEq,
                    None if lang == Lang::Rust => {
                        stmts.push(Stmt::Return {
                            expr: Expr::Var(name),
                        });
                        break;
                    }
                    other => {
                        return Err(format!(
                            "unsupported statement at `{name}`: got {other:?} \
                             (only `=`, `|=`, `^=` assignments are analyzable)"
                        ));
                    }
                };
                let expr = parse_expr(&mut p, 0)?;
                p.expect_punct(";")?;
                stmts.push(Stmt::Assign { name, op, expr });
            }
            other => return Err(format!("unsupported statement start {other:?}")),
        }
    }
    Ok(stmts)
}

fn ident(p: &mut Parser) -> Result<String, String> {
    match p.bump() {
        Some(Tok::Ident(s)) => Ok(s.clone()),
        other => Err(format!("expected identifier, got {other:?}")),
    }
}

/// Precedence-climbing expression parser. Binding power mirrors C:
/// `|` < `^` < `&` < shifts < `+ -` < `* / %` < unary < primary.
fn parse_expr(p: &mut Parser, min_bp: u8) -> Result<Expr, String> {
    let first = parse_unary(p)?;
    let mut rest = Vec::new();
    loop {
        let (op, bp) = match p.peek_punct() {
            Some("|") => (BinOp::Or, 1),
            Some("^") => (BinOp::Xor, 2),
            Some("&") => (BinOp::And, 3),
            Some("<<") => (BinOp::Shl, 4),
            Some(">>") => (BinOp::Shr, 4),
            Some("+") => (BinOp::Add, 5),
            Some("-") => (BinOp::Sub, 5),
            Some("*") => (BinOp::Mul, 6),
            Some("/") => (BinOp::Div, 6),
            Some("%") => (BinOp::Rem, 6),
            _ => break,
        };
        if bp < min_bp {
            break;
        }
        p.bump();
        rest.push((op, parse_expr(p, bp + 1)?));
    }
    Ok(if rest.is_empty() {
        first
    } else {
        Expr::Chain(Box::new(first), rest)
    })
}

/// Every recursive cycle of the grammar passes through here, so this
/// is where nesting is counted.
fn parse_unary(p: &mut Parser) -> Result<Expr, String> {
    if p.depth == MAX_DEPTH {
        return Err(format!("expression nested deeper than {MAX_DEPTH} levels"));
    }
    p.depth += 1;
    let e = match p.peek_punct() {
        Some("~") | Some("!") => {
            p.bump();
            parse_unary(p).map(|e| Expr::Not(Box::new(e)))
        }
        _ => parse_primary(p),
    };
    p.depth -= 1;
    e
}

fn parse_primary(p: &mut Parser) -> Result<Expr, String> {
    match p.bump() {
        Some(Tok::Num(n)) => Ok(Expr::Num(*n)),
        Some(Tok::Ident(name)) => {
            if p.eat_punct("[") {
                let idx = match p.bump() {
                    Some(Tok::Num(n)) => *n as usize,
                    other => return Err(format!("expected index literal, got {other:?}")),
                };
                p.expect_punct("]")?;
                Ok(Expr::Index(name.clone(), idx))
            } else {
                Ok(Expr::Var(name.clone()))
            }
        }
        Some(Tok::Punct("(")) => {
            let e = parse_expr(p, 0)?;
            p.expect_punct(")")?;
            Ok(e)
        }
        other => Err(format!("expected expression, got {other:?}")),
    }
}

/// Counts `^` applications across the function body — the XOR-cost
/// metric reported for sources (`^=` counts as one).
pub(crate) fn count_xors(f: &Func) -> usize {
    fn walk(e: &Expr) -> usize {
        match e {
            Expr::Num(_) | Expr::Var(_) | Expr::Index(..) => 0,
            Expr::Not(a) => walk(a),
            Expr::Chain(first, rest) => {
                walk(first)
                    + rest
                        .iter()
                        .map(|(op, e)| usize::from(*op == BinOp::Xor) + walk(e))
                        .sum::<usize>()
            }
        }
    }
    f.stmts
        .iter()
        .map(|s| match s {
            Stmt::Decl { init: Some(e), .. } => walk(e),
            Stmt::Decl { init: None, .. } => 0,
            Stmt::Assign { op, expr, .. } => usize::from(*op == AssignOp::XorEq) + walk(expr),
            Stmt::Return { expr } => walk(expr),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stray_brackets_and_non_ascii_are_errors_not_panics() {
        // `]` before `[` in a C parameter, and a multi-byte character
        // right after a one-byte operator
        for src in [
            "uint64_t encode_checks(uint64_t d]0[) { return d; }",
            "uint64_t encode_checks(uint64_t d) { return d ^\u{ef}; }",
        ] {
            assert!(parse_encode_checks(src, Lang::C).is_err(), "{src}");
        }
    }

    #[test]
    fn parses_emitted_c_shape() {
        let src = "#include <stdint.h>\n/* generated */\n\
                   uint64_t encode_checks(uint64_t d) {\n\
                   \x20   uint64_t c = 0, b;\n\
                   \x20   b = (d >> 0) ^ (d >> 1);\n\
                   \x20   c |= (b & 1) << 0;\n\
                   \x20   return c;\n}\n\
                   uint64_t syndrome(uint64_t d, uint64_t checks) {\n\
                   \x20   return encode_checks(d) ^ checks;\n}\n";
        let f = parse_encode_checks(src, Lang::C).unwrap();
        assert_eq!(f.param, "d");
        assert_eq!(f.shape, ParamShape::Scalar);
        assert_eq!(f.stmts.len(), 5); // c decl, b decl, b =, c |=, return
        assert_eq!(count_xors(&f), 1);
    }

    #[test]
    fn parses_emitted_rust_shape_with_trailing_return() {
        let src = "/// doc\npub fn encode_checks(d: u64) -> u64 {\n\
                   \x20   let mut c = 0u64;\n\
                   \x20   c |= (((d >> 2) ^ (d >> 3)) & 1) << 1;\n\
                   \x20   c\n}\n";
        let f = parse_encode_checks(src, Lang::Rust).unwrap();
        assert_eq!(f.shape, ParamShape::Scalar);
        assert!(matches!(f.stmts.last(), Some(Stmt::Return { .. })));
    }

    #[test]
    fn parses_wide_array_signatures() {
        let c = "uint64_t encode_checks(const uint64_t d[2]) {\n    uint64_t c = 0;\n    c |= (d[1] >> 3) & 1;\n    return c;\n}";
        let f = parse_encode_checks(c, Lang::C).unwrap();
        assert_eq!(f.shape, ParamShape::Array(2));
        let r =
            "pub fn encode_checks(d: &[u64; 2]) -> u64 {\n    let c = (d[0] >> 9) & 1;\n    c\n}";
        let f = parse_encode_checks(r, Lang::Rust).unwrap();
        assert_eq!(f.shape, ParamShape::Array(2));
    }

    #[test]
    fn nonlinear_operators_parse_for_the_linter() {
        let src =
            "uint64_t encode_checks(uint64_t d) {\n    uint64_t c = (d + 1) & 1;\n    return c;\n}";
        let f = parse_encode_checks(src, Lang::C).unwrap();
        let Stmt::Decl {
            init: Some(Expr::Chain(lhs, rest)),
            ..
        } = &f.stmts[0]
        else {
            panic!("shape");
        };
        assert!(matches!(rest[..], [(BinOp::And, _)]));
        assert!(matches!(&**lhs, Expr::Chain(_, r) if matches!(r[..], [(BinOp::Add, _)])));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let n = 100_000;
        for expr in [
            format!("{}d{}", "(".repeat(n), ")".repeat(n)),
            format!("{}d", "~".repeat(n)),
        ] {
            let src = format!("uint64_t encode_checks(uint64_t d) {{\n    return {expr};\n}}");
            let e = parse_encode_checks(&src, Lang::C).unwrap_err();
            assert!(e.contains("nested deeper than"), "{e}");
        }
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(parse_encode_checks("int nope(void) {}", Lang::C).is_err());
        let bad = "uint64_t encode_checks(uint64_t d) {\n    for (;;) {}\n    return 0;\n}";
        assert!(parse_encode_checks(bad, Lang::C).is_err());
    }
}
