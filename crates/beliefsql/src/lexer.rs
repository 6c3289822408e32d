//! Tokenizer for BeliefSQL (the Fig. 1 grammar plus the constructs used by
//! the paper's example statements: aliases, qualified columns, `<>`).

use crate::error::{Result, SqlError};
use std::fmt;

/// Keywords are matched case-insensitively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    And,
    As,
    Belief,
    Not,
    Insert,
    Into,
    Values,
    Delete,
    Update,
    Set,
}

impl Keyword {
    /// The keyword `s` spells in any letter case. Compares in place: no
    /// upper-cased copy of every identifier.
    fn from_ident(s: &str) -> Option<Keyword> {
        const KEYWORDS: [(&str, Keyword); 13] = [
            ("SELECT", Keyword::Select),
            ("FROM", Keyword::From),
            ("WHERE", Keyword::Where),
            ("AND", Keyword::And),
            ("AS", Keyword::As),
            ("BELIEF", Keyword::Belief),
            ("NOT", Keyword::Not),
            ("INSERT", Keyword::Insert),
            ("INTO", Keyword::Into),
            ("VALUES", Keyword::Values),
            ("DELETE", Keyword::Delete),
            ("UPDATE", Keyword::Update),
            ("SET", Keyword::Set),
        ];
        KEYWORDS
            .iter()
            .find(|(word, _)| word.eq_ignore_ascii_case(s))
            .map(|&(_, k)| k)
    }
}

/// One token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Keyword(Keyword),
    /// Unquoted identifier (table, alias, or column name).
    Ident(String),
    /// `'single quoted'` string; `''` escapes a quote.
    Str(String),
    /// Integer literal.
    Int(i64),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Semicolon,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// Tokenize a statement. The trailing token is always [`TokenKind::Eof`].
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(SqlError::Lex {
                        message: "unexpected `!` (did you mean `!=`?)".into(),
                        offset: start,
                    });
                }
            }
            '\'' => {
                // A quote is ASCII and never occurs inside a multi-byte
                // UTF-8 sequence, so every quote is on a char boundary:
                // the text is copied in slices, a literal without a `''`
                // escape in one.
                let mut text = String::new();
                let mut from = i + 1;
                loop {
                    let Some(quote) = bytes[from..].iter().position(|&b| b == b'\'') else {
                        return Err(SqlError::Lex {
                            message: "unterminated string literal".into(),
                            offset: start,
                        });
                    };
                    let end = from + quote;
                    if bytes.get(end + 1) == Some(&b'\'') {
                        // Keep one quote of the pair.
                        text.push_str(&input[from..=end]);
                        from = end + 2;
                    } else {
                        text.push_str(&input[from..end]);
                        i = end + 1;
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(text),
                    offset: start,
                });
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let text = &input[i..j];
                let value = text.parse::<i64>().map_err(|_| SqlError::Lex {
                    message: format!("invalid integer literal `{text}`"),
                    offset: start,
                })?;
                tokens.push(Token {
                    kind: TokenKind::Int(value),
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let c = bytes[j] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..j];
                let kind = match Keyword::from_ident(text) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(text.to_string()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = j;
            }
            _ => {
                // Every arm above matches an ASCII byte, so `start` is on a
                // char boundary: name the whole character, not its first
                // byte.
                let other = input[start..].chars().next().expect("start < len");
                return Err(SqlError::Lex {
                    message: format!("unexpected character `{other}`"),
                    offset: start,
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            kinds("select FROM Where and"),
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Keyword(Keyword::From),
                TokenKind::Keyword(Keyword::Where),
                TokenKind::Keyword(Keyword::And),
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("BELIEF belief Belief"),
            vec![
                TokenKind::Keyword(Keyword::Belief),
                TokenKind::Keyword(Keyword::Belief),
                TokenKind::Keyword(Keyword::Belief),
                TokenKind::Eof
            ]
        );
        // A keyword's letters in a longer word do not make it one.
        assert_eq!(
            kinds("SeLeCtIon Asset"),
            vec![
                TokenKind::Ident("SeLeCtIon".into()),
                TokenKind::Ident("Asset".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn identifiers_and_qualified_names() {
        assert_eq!(
            kinds("S1.species"),
            vec![
                TokenKind::Ident("S1".into()),
                TokenKind::Dot,
                TokenKind::Ident("species".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(
            kinds("'bald eagle'"),
            vec![TokenKind::Str("bald eagle".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("'''' 'a''''b' '' 'é''鳥'"),
            vec![
                TokenKind::Str("'".into()),
                TokenKind::Str("a''b".into()),
                TokenKind::Str("".into()),
                TokenKind::Str("é'鳥".into()),
                TokenKind::Eof
            ]
        );
        assert!(matches!(tokenize("'open"), Err(SqlError::Lex { .. })));
        assert!(matches!(tokenize("'open''"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42"), vec![TokenKind::Int(42), TokenKind::Eof]);
        assert_eq!(kinds("-7"), vec![TokenKind::Int(-7), TokenKind::Eof]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= <> != < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof
            ]
        );
        assert!(matches!(tokenize("!x"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn punctuation_and_offsets() {
        let tokens = tokenize("a, (b) *;").unwrap();
        assert_eq!(tokens[0].offset, 0);
        assert_eq!(tokens[1].kind, TokenKind::Comma);
        assert_eq!(tokens[2].kind, TokenKind::LParen);
        assert_eq!(tokens[4].kind, TokenKind::RParen);
        assert_eq!(tokens[5].kind, TokenKind::Star);
        assert_eq!(tokens[6].kind, TokenKind::Semicolon);
    }

    #[test]
    fn full_insert_statement() {
        let toks = kinds(
            "insert into BELIEF 'Bob' not Sightings values ('s1','Carol','bald eagle','6-14-08','Lake Forest')",
        );
        assert!(toks.contains(&TokenKind::Keyword(Keyword::Belief)));
        assert!(toks.contains(&TokenKind::Keyword(Keyword::Not)));
        assert!(toks.contains(&TokenKind::Str("bald eagle".into())));
        assert_eq!(toks.iter().filter(|t| **t == TokenKind::Comma).count(), 4);
    }

    /// A character outside ASCII is named whole in the error, at the
    /// byte offset where it starts.
    #[test]
    fn names_a_non_ascii_character_whole() {
        for (input, ch, offset) in [
            ("select S.sid from S where S.sid = é", "é", 34),
            ("select S.sid from S where ¬ S.sid = 1", "¬", 26),
        ] {
            match tokenize(input) {
                Err(SqlError::Lex {
                    message,
                    offset: at,
                }) => {
                    assert_eq!(message, format!("unexpected character `{ch}`"));
                    assert_eq!(at, offset);
                }
                other => panic!("{input}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(matches!(
            tokenize("a @ b"),
            Err(SqlError::Lex { offset: 2, .. })
        ));
    }
}
