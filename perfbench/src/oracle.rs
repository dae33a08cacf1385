//! The answer oracle: what every response must say, computed through the
//! library, and the comparison of an HTTP response against it.
//!
//! Matches compare bit for bit (series, offset, and the `f64` bits of `a`,
//! `b` and the distance — the server encodes floats as shortest round-trip
//! decimals, so the wire preserves them exactly), together with the
//! `candidates`, `verified`, `index_pages` and `data_pages` counters.

use tsss_core::SearchResult;
use tsss_server::json::Json;

/// One match as compared: series, offset and the bits of `a`, `b`,
/// distance.
pub type MatchKey = (u64, u64, u64, u64, u64);

/// The checked content of one search or k-NN answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Every match, in the canonical order.
    pub matches: Vec<MatchKey>,
    /// Windows the candidate stage produced.
    pub candidates: u64,
    /// Candidates that passed verification.
    pub verified: u64,
    /// Logical index-page accesses.
    pub index_pages: u64,
    /// Logical data-page accesses.
    pub data_pages: u64,
}

impl Answer {
    /// The answer the library computed.
    pub fn from_result(res: &SearchResult) -> Answer {
        Answer {
            matches: res
                .matches
                .iter()
                .map(|m| {
                    (
                        m.id.series_idx() as u64,
                        m.id.offset_idx() as u64,
                        m.transform.a.to_bits(),
                        m.transform.b.to_bits(),
                        m.distance.to_bits(),
                    )
                })
                .collect(),
            candidates: res.stats.candidates,
            verified: res.stats.verified,
            index_pages: res.stats.index_pages,
            data_pages: res.stats.data_pages,
        }
    }

    /// The answer an HTTP response body carries.
    ///
    /// # Errors
    /// A diagnosis when the body is not a complete search response.
    pub fn from_body(body: &str) -> Result<Answer, String> {
        let j = Json::parse(body).map_err(|e| format!("unparseable response: {e}"))?;
        let field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response lacks integer {key:?}"))
        };
        let float = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .map(f64::to_bits)
                .ok_or_else(|| format!("response lacks number {key:?}"))
        };
        let matches = j
            .get("matches")
            .and_then(Json::as_array)
            .ok_or("response lacks \"matches\"")?
            .iter()
            .map(|m| {
                Ok((
                    field(m, "series")?,
                    field(m, "offset")?,
                    float(m, "a")?,
                    float(m, "b")?,
                    float(m, "distance")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if field(&j, "total_matches")? != matches.len() as u64 {
            return Err("total_matches disagrees with the matches sent".to_string());
        }
        let stats = j.get("stats").ok_or("response lacks \"stats\"")?;
        Ok(Answer {
            matches,
            candidates: field(stats, "candidates")?,
            verified: field(stats, "verified")?,
            index_pages: field(stats, "index_pages")?,
            data_pages: field(stats, "data_pages")?,
        })
    }

    /// Why `self` (a response) differs from `want`, if it does.
    pub fn diff(&self, want: &Answer) -> Option<String> {
        if self == want {
            return None;
        }
        Some(format!(
            "got {} matches / {} candidates / {} verified / {}+{} pages, want {} / {} / {} / {}+{}{}",
            self.matches.len(),
            self.candidates,
            self.verified,
            self.index_pages,
            self.data_pages,
            want.matches.len(),
            want.candidates,
            want.verified,
            want.index_pages,
            want.data_pages,
            if self.matches == want.matches {
                ""
            } else {
                " (match lists differ)"
            },
        ))
    }
}

/// The snapshot generation a response was stamped with.
pub fn epoch_of(body: &str) -> Option<u64> {
    Json::parse(body)
        .ok()?
        .get("stats")?
        .get("epoch")
        .and_then(Json::as_u64)
}

/// A response body with its wall-clock field (`stats.elapsed_us`) zeroed:
/// two responses to the same query against the same snapshot are equal
/// byte for byte once it is gone, so each distinct body needs parsing once.
pub fn without_elapsed(body: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    match body.find(KEY) {
        Some(at) => {
            let rest = &body[at + KEY.len()..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            format!("{}0{}", &body[..at + KEY.len()], &rest[digits..])
        }
        None => body.to_string(),
    }
}

/// Whether a search answer holds `(series, offset)` as a self-match:
/// distance within `tol`.
pub fn has_self_match(ans: &Answer, series: usize, offset: usize, tol: f64) -> bool {
    ans.matches.iter().any(|&(s, o, _, _, d)| {
        s == series as u64 && o == offset as u64 && f64::from_bits(d) <= tol
    })
}
