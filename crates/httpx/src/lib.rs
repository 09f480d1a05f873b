#![warn(missing_docs)]
//! HTTP/1.1 parsing/serialization and a minimal JSON implementation.
//!
//! LibSEAL's service-specific modules parse the requests and responses
//! flowing through the TLS termination point (§5.1): HTTP for all three
//! evaluated services, with JSON bodies for ownCloud document sync and
//! the Dropbox metadata protocol. This crate provides both parsers
//! without external dependencies (JSON is implemented here rather than
//! pulling `serde_json`, keeping the in-enclave code self-contained).

pub mod http;
pub mod json;

pub use http::{
    frame_request, frame_response, parse_request, parse_request_limited, parse_response,
    parse_response_limited, Frame, HeaderMap, Limits, Request, Response,
};
pub use json::Json;

/// Errors from protocol parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// More bytes are needed before a full message can be parsed.
    Incomplete,
    /// The bytes cannot be a valid message.
    Malformed(String),
    /// The header section exceeds the configured byte limit (431).
    HeadTooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// More header lines than the configured limit (431).
    TooManyHeaders {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The declared or accumulated body exceeds the byte limit (413).
    BodyTooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// JSON arrays and objects nested deeper than the parser follows
    /// (400).
    TooDeep {
        /// The limit that was exceeded ([`json::MAX_DEPTH`]).
        limit: usize,
    },
}

impl ParseError {
    /// The HTTP status a server should answer with before closing the
    /// connection. [`ParseError::Incomplete`] is not an error state —
    /// callers keep reading instead — but maps to 400 for totality.
    pub fn close_status(&self) -> u16 {
        match self {
            ParseError::Incomplete | ParseError::Malformed(_) | ParseError::TooDeep { .. } => 400,
            ParseError::HeadTooLarge { .. } | ParseError::TooManyHeaders { .. } => 431,
            ParseError::BodyTooLarge { .. } => 413,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Incomplete => write!(f, "incomplete message"),
            ParseError::Malformed(m) => write!(f, "malformed message: {m}"),
            ParseError::HeadTooLarge { limit } => {
                write!(f, "header section exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header lines")
            }
            ParseError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            ParseError::TooDeep { limit } => write!(f, "JSON nested deeper than {limit} levels"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias for parser results.
pub type Result<T> = std::result::Result<T, ParseError>;
