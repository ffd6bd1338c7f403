//! Shared simulation template for fault-variant campaigns.
//!
//! A fault campaign simulates hundreds of circuit variants that are
//! mostly *the same topology*: every static-pattern DC solve of one
//! faulted bench shares a structure, every skew-check transient re-uses
//! the structure the detection transient already analysed, and faults
//! that only change device values (bridges of different resistance on
//! the same pair, stuck levels on the same node) collapse onto one
//! structure too. [`SimTemplate`] exploits that at two levels:
//!
//! * **Structure sharing** — the template owns a [`SymbolicCache`] and
//!   routes every simulation through the structure-cached entry points
//!   of `clocksense-spice`, so the sparse backend performs its
//!   fill-reducing symbolic analysis once per *distinct* topology and
//!   every later variant clones only numeric state. Faults that do
//!   change the topology (an extra bridge resistor, a removed
//!   transistor) simply miss the cache and get a fresh analysis —
//!   correctness never depends on the cache's hit rate.
//! * **Batched solving** — [`transient_batch_opts`](SimTemplate::transient_batch_opts)
//!   hands a whole slice of value-variant circuits to the spice crate's
//!   [`BatchSim`](clocksense_spice::BatchSim) kernel, which packs
//!   structurally aligned variants into one structure-of-arrays Newton
//!   solve: one shared baseline stamp per timestep, per-variant delta
//!   stamps for only the devices a fault touches, and per-variant
//!   convergence masks so a variant that fails drops out to the scalar
//!   path without poisoning its batch-mates.
//!
//! Every call takes its own [`SimOptions`] (a campaign item's deadline
//! token, or the retry pass's relaxed settings) while all calls share the
//! cache; on the [`Dense`](clocksense_spice::SolverKind::Dense) backend
//! the cache is left alone and nothing batches.

use clocksense_netlist::Circuit;
use clocksense_spice::{
    dc_operating_point_cached, iddq_cached, transient_batch, transient_cached, DcSolution,
    SimOptions, SpiceError, SymbolicCache, TranResult,
};

/// Builds the simulation engine's per-topology structure once and shares
/// it across every variant of a batched run.
///
/// The template is `Sync`: one instance serves all campaign worker
/// threads, and the interior cache handles concurrent lookups (first
/// analysis wins, racers drop their duplicate).
///
/// # Examples
///
/// ```
/// use clocksense_faults::SimTemplate;
/// use clocksense_spice::{SimOptions, SolverKind};
///
/// let tpl = SimTemplate::new(SimOptions {
///     solver: SolverKind::Sparse,
///     ..SimOptions::default()
/// });
/// assert_eq!(tpl.cache_stats(), (0, 0));
/// ```
#[derive(Debug)]
pub struct SimTemplate {
    opts: SimOptions,
    cache: SymbolicCache,
}

impl SimTemplate {
    /// A template simulating with `opts`. The symbolic cache starts
    /// empty and fills as topologies are first seen.
    pub fn new(opts: SimOptions) -> SimTemplate {
        SimTemplate {
            opts,
            cache: SymbolicCache::new(),
        }
    }

    /// The baseline options this template was built with; every
    /// simulation call takes its own.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Transient analysis of `circuit` on `opts`, sharing this template's
    /// symbolic cache. See [`clocksense_spice::transient_cached`].
    ///
    /// # Errors
    ///
    /// Same as [`clocksense_spice::transient`].
    pub fn transient_opts(
        &self,
        circuit: &Circuit,
        t_stop: f64,
        opts: &SimOptions,
    ) -> Result<TranResult, SpiceError> {
        transient_cached(circuit, t_stop, opts, &self.cache)
    }

    /// Batched transient analysis of several value-variant circuits at
    /// once, with caller-supplied options, sharing this template's
    /// symbolic cache. See [`clocksense_spice::transient_batch`].
    ///
    /// With the [`Sparse`](clocksense_spice::SolverKind::Sparse) backend
    /// and `opts.batch >= 2`, structurally aligned circuits are packed
    /// into the structure-of-arrays batch kernel; anything the kernel
    /// cannot batch (the dense backend, misaligned structures, singleton
    /// groups, a variant that fails mid-batch) runs the scalar cached
    /// path per variant.
    ///
    /// Each slot of the returned `Vec` holds that circuit's own result
    /// or its own structured error — one variant failing never poisons
    /// the others.
    ///
    /// # Examples
    ///
    /// ```
    /// use clocksense_faults::SimTemplate;
    /// use clocksense_netlist::{Circuit, SourceWave, GROUND};
    /// use clocksense_spice::{SimOptions, SolverKind};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let opts = SimOptions {
    ///     solver: SolverKind::Sparse,
    ///     batch: 4,
    ///     ..SimOptions::default()
    /// };
    /// let tpl = SimTemplate::new(opts.clone());
    /// let variants: Vec<Circuit> = [1e3, 2e3, 5e3]
    ///     .iter()
    ///     .map(|&r| {
    ///         let mut ckt = Circuit::new();
    ///         let inp = ckt.node("in");
    ///         let out = ckt.node("out");
    ///         ckt.add_vsource("vin", inp, GROUND, SourceWave::Dc(1.0))?;
    ///         ckt.add_resistor("r", inp, out, r)?;
    ///         ckt.add_capacitor("c", out, GROUND, 1e-12)?;
    ///         Ok(ckt)
    ///     })
    ///     .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    /// let results = tpl.transient_batch_opts(&variants, 1e-9, &opts);
    /// assert_eq!(results.len(), 3);
    /// for r in &results {
    ///     assert!(r.is_ok());
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn transient_batch_opts(
        &self,
        circuits: &[Circuit],
        t_stop: f64,
        opts: &SimOptions,
    ) -> Vec<Result<TranResult, SpiceError>> {
        transient_batch(circuits, t_stop, opts, &self.cache)
    }

    /// DC operating point of `circuit` with caller-supplied options,
    /// sharing symbolic structures; see
    /// [`transient_opts`](SimTemplate::transient_opts) and
    /// [`clocksense_spice::dc_operating_point_cached`].
    ///
    /// # Errors
    ///
    /// Same as [`clocksense_spice::dc_operating_point`].
    pub fn dc_operating_point_opts(
        &self,
        circuit: &Circuit,
        opts: &SimOptions,
    ) -> Result<DcSolution, SpiceError> {
        dc_operating_point_cached(circuit, opts, &self.cache)
    }

    /// Quiescent supply current of `circuit` with caller-supplied
    /// options, sharing symbolic structures; see
    /// [`transient_opts`](SimTemplate::transient_opts) and
    /// [`clocksense_spice::iddq_cached`].
    ///
    /// # Errors
    ///
    /// Same as [`clocksense_spice::iddq`].
    pub fn iddq_opts(
        &self,
        circuit: &Circuit,
        supply: &str,
        opts: &SimOptions,
    ) -> Result<f64, SpiceError> {
        iddq_cached(circuit, supply, opts, &self.cache)
    }

    /// `(hits, misses)` of the symbolic cache so far. Dense runs always
    /// read `(0, 0)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Number of distinct topologies analysed so far.
    pub fn topologies(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksense_netlist::{SourceWave, GROUND};
    use clocksense_spice::SolverKind;

    fn rc_bench(r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("vin", inp, GROUND, SourceWave::step(0.0, 1.0, 0.0, 1e-12))
            .unwrap();
        ckt.add_resistor("r", inp, out, r).unwrap();
        ckt.add_capacitor("c", out, GROUND, 1e-12).unwrap();
        ckt
    }

    #[test]
    fn dense_template_is_a_pass_through() {
        let tpl = SimTemplate::new(SimOptions::default());
        tpl.transient_opts(&rc_bench(1e3), 1e-9, tpl.options())
            .unwrap();
        tpl.dc_operating_point_opts(&rc_bench(1e3), tpl.options())
            .unwrap();
        assert_eq!(tpl.cache_stats(), (0, 0));
        assert_eq!(tpl.topologies(), 0);
    }

    #[test]
    fn sparse_template_shares_one_structure_across_value_variants() {
        let tpl = SimTemplate::new(SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        });
        // Three value-only variants of one topology: one analysis.
        for r in [1e3, 2e3, 5e3] {
            tpl.transient_opts(&rc_bench(r), 1e-10, tpl.options())
                .unwrap();
        }
        let (hits, misses) = tpl.cache_stats();
        assert_eq!(misses, 1, "one distinct topology");
        assert!(hits >= 2, "later variants must reuse the structure");
        assert_eq!(tpl.topologies(), 1);
    }

    #[test]
    fn topology_change_falls_back_to_a_fresh_build() {
        let tpl = SimTemplate::new(SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        });
        tpl.transient_opts(&rc_bench(1e3), 1e-10, tpl.options())
            .unwrap();
        // A resistor to ground on an existing node adds no new stamp
        // positions — the structure is legitimately shared.
        let mut grounded = rc_bench(1e3);
        let out = grounded.node("out");
        grounded.add_resistor("rb", out, GROUND, 1e6).unwrap();
        tpl.transient_opts(&grounded, 1e-10, tpl.options()).unwrap();
        assert_eq!(tpl.topologies(), 1, "same pattern, same structure");
        // An extra internal node does change the pattern: fresh build.
        let mut extended = rc_bench(1e3);
        let out = extended.node("out");
        let mid = extended.node("mid");
        extended.add_resistor("r2", out, mid, 1e3).unwrap();
        extended.add_capacitor("c2", mid, GROUND, 1e-13).unwrap();
        tpl.transient_opts(&extended, 1e-10, tpl.options()).unwrap();
        assert_eq!(tpl.topologies(), 2);
    }

    #[test]
    fn batched_template_matches_scalar_and_dense_falls_back() {
        let scalar = SimTemplate::new(SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        });
        let batched = SimTemplate::new(SimOptions {
            solver: SolverKind::Sparse,
            batch: 4,
            ..SimOptions::default()
        });
        let variants: Vec<Circuit> = [1e3, 2e3, 5e3].iter().map(|&r| rc_bench(r)).collect();
        let batch_results = batched.transient_batch_opts(&variants, 1e-9, batched.options());
        for (ckt, br) in variants.iter().zip(&batch_results) {
            let b = br.as_ref().unwrap();
            let s = scalar.transient_opts(ckt, 1e-9, scalar.options()).unwrap();
            let diff = b
                .waveform_named("out")
                .unwrap()
                .max_abs_difference(&s.waveform_named("out").unwrap());
            assert!(diff < 1e-9, "batched vs scalar diverged: {diff}");
        }
        // Dense runs every circuit on the scalar dense engine.
        let dense = SimTemplate::new(SimOptions {
            batch: 4,
            ..SimOptions::default()
        });
        let dense_results = dense.transient_batch_opts(&variants, 1e-9, dense.options());
        assert!(dense_results.iter().all(Result::is_ok));
        assert_eq!(dense.cache_stats(), (0, 0));
    }

    #[test]
    fn sparse_template_matches_dense_results() {
        let dense = SimTemplate::new(SimOptions::default());
        let sparse = SimTemplate::new(SimOptions {
            solver: SolverKind::Sparse,
            ..SimOptions::default()
        });
        let ckt = rc_bench(1e3);
        let d = dense
            .dc_operating_point_opts(&ckt, dense.options())
            .unwrap();
        let s = sparse
            .dc_operating_point_opts(&ckt, sparse.options())
            .unwrap();
        for (dv, sv) in d.as_vector().iter().zip(s.as_vector()) {
            assert!((dv - sv).abs() < 1e-9, "dense {dv} vs sparse {sv}");
        }
    }
}
