//! Output checking: every answer is compared with a reference, and
//! with the committed digest when the seed has one.

use crate::expected::{digest, Committed};
use crate::stats::Tally;

/// Counts operations and failures for one benchmark run and keeps the
/// first few failure messages for the report.
pub struct Checker {
    committed: Committed,
    seed: u64,
    workload: &'static str,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// First failure messages (capped).
    pub failures: Vec<String>,
}

const MAX_MESSAGES: usize = 8;

impl Checker {
    /// A checker for `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Checker {
        Checker {
            committed: Committed::load(),
            seed,
            workload,
            tally: Tally::default(),
            failures: Vec::new(),
        }
    }

    /// Record a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.tally.op(false);
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Record a successful operation.
    pub fn pass(&mut self) {
        self.tally.op(true);
    }

    /// Record one operation that answered `json` for job `key`: it
    /// must equal `reference` (when given) and the committed digest
    /// (when the seed has one).
    pub fn answer(&mut self, key: &str, json: &str, reference: Option<&str>) {
        match self.mismatch(key, json, reference) {
            None => self.pass(),
            Some(msg) => self.fail(msg),
        }
    }

    /// Why `json` is wrong for `key`, or `None` when it is right.
    pub fn mismatch(&self, key: &str, json: &str, reference: Option<&str>) -> Option<String> {
        if let Some(r) = reference {
            if r != json {
                return Some(format!("{key}: output differs from the reference run"));
            }
        }
        self.mismatch_digest(key, &digest(json))
    }

    /// Why digest `got` is wrong for `key`, or `None` when it matches
    /// the committed one or none is committed for this seed.
    pub fn mismatch_digest(&self, key: &str, got: &str) -> Option<String> {
        let want = self.committed.digest_for(self.seed, self.workload, key)?;
        (got != want).then(|| format!("{key}: digest {got}, committed {want}"))
    }
}
