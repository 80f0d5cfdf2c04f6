//! Tokenizer for the property language.

use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    Int(i64),
    Real(f64),
    /// A generator reference `G0`, `G17`, or the bare `G` of `G[e]`.
    Gen(Option<usize>),
    /// Keywords and named functions.
    LenD,
    LenC,
    LenOnes,
    Md,
    /// `corr`: number of correctable bit errors (§6 extension).
    Corr,
    LenG,
    LenW,
    SumW,
    Weight,
    Minimal,
    Maximal,
    True,
    False,
    // punctuation & operators
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Plus,
    Minus,
    Star,
    Bang,
    AndAnd,
    OrOr,
    Arrow, // =>
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

/// A lexing failure, with byte position.
#[derive(Clone, PartialEq, Debug)]
pub struct LexError {
    pub position: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a property string.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Arrow);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Eq);
                    i += 2;
                } else {
                    out.push(Token::Eq);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Bang);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    let r: f64 = text
                        .parse()
                        .map_err(|_| err(start, &format!("bad real literal {text:?}")))?;
                    out.push(Token::Real(r));
                } else {
                    let text = &input[start..i];
                    let n: i64 = text
                        .parse()
                        .map_err(|_| err(start, &format!("bad integer literal {text:?}")))?;
                    out.push(Token::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                out.push(match word {
                    "len_d" => Token::LenD,
                    "len_c" => Token::LenC,
                    "len_1" => Token::LenOnes,
                    "md" => Token::Md,
                    "corr" => Token::Corr,
                    "len_G" => Token::LenG,
                    "len_w" => Token::LenW,
                    "sum_w" => Token::SumW,
                    "w" => Token::Weight,
                    "minimal" => Token::Minimal,
                    "maximal" => Token::Maximal,
                    "true" => Token::True,
                    "false" => Token::False,
                    "G" => Token::Gen(None),
                    _ => {
                        if let Some(num) = word.strip_prefix('G') {
                            let idx: usize = num
                                .parse()
                                .map_err(|_| err(start, &format!("unknown identifier {word:?}")))?;
                            Token::Gen(Some(idx))
                        } else {
                            return Err(err(start, &format!("unknown identifier {word:?}")));
                        }
                    }
                });
            }
            _ => {
                // every byte before `i` was ASCII, so `i` starts a char
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(err(i, &format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(out)
}

fn err(position: usize, message: &str) -> LexError {
    LexError {
        position,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_paper_example() {
        let toks = lex("len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 \
                        && md(G0) = 3 && minimal(len_c(G0))")
        .unwrap();
        assert!(toks.contains(&Token::LenG));
        assert!(toks.contains(&Token::Gen(Some(0))));
        assert!(toks.contains(&Token::Minimal));
        assert_eq!(toks.iter().filter(|t| **t == Token::AndAnd).count(), 4);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            lex("42 3.5").unwrap(),
            vec![Token::Int(42), Token::Real(3.5)]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            lex("= == != < <= > >= => ! && ||").unwrap(),
            vec![
                Token::Eq,
                Token::Eq,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Arrow,
                Token::Bang,
                Token::AndAnd,
                Token::OrOr
            ]
        );
    }

    #[test]
    fn lexes_generator_refs() {
        assert_eq!(
            lex("G G0 G17").unwrap(),
            vec![Token::Gen(None), Token::Gen(Some(0)), Token::Gen(Some(17))]
        );
    }

    #[test]
    fn rejects_unknown_identifier() {
        assert!(lex("foo").is_err());
        assert!(lex("Gx").is_err());
        assert!(lex("#").is_err());
        assert!(lex("&").is_err());
    }

    #[test]
    fn reports_a_non_ascii_character_whole() {
        let e = lex("md(G0) = é").unwrap_err();
        assert_eq!(e.position, 9);
        assert_eq!(e.message, "unexpected character 'é'");
    }
}
