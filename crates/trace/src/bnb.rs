//! The options and output of the configurable entry points of the ILP,
//! ISE selection, and RMS configuration branch-and-bound searches
//! (`solve_with`, `branch_and_bound_with`, `select_rms_with`). Each of
//! them runs its own serial depth-first search on the calling thread.

/// Default cap on certificate events per solve. Experiment-scale solves
/// explore well under a million nodes; anything past the cap is counted
/// as dropped instead of growing without bound.
pub const DEFAULT_CERT_CAP: usize = 1 << 22;

/// Options of a solver's configurable search call. The default is the
/// plain call: no certificate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOpts {
    /// Certificate event cap. `None` records no certificate; see
    /// [`DEFAULT_CERT_CAP`].
    pub cert_cap: Option<usize>,
}

impl SearchOpts {
    /// The plain call plus a certificate capped at [`DEFAULT_CERT_CAP`].
    pub const CERTIFIED: SearchOpts = SearchOpts {
        cert_cap: Some(DEFAULT_CERT_CAP),
    };
}

/// What a configurable search call returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutput<R, S, C> {
    /// The answer, as the plain call returns it.
    pub result: R,
    /// Search statistics, also for failed searches.
    pub stats: S,
    /// The replayable certificate, when [`SearchOpts::cert_cap`] asked
    /// for one.
    pub cert: Option<C>,
}

impl<R, S, C> SearchOutput<R, S, C> {
    /// The result and certificate of a search run with a certificate cap.
    ///
    /// # Panics
    ///
    /// Panics if the options set no [`SearchOpts::cert_cap`].
    pub fn certified(self) -> (R, C) {
        let cert = self.cert.expect("search options set a certificate cap");
        (self.result, cert)
    }
}
