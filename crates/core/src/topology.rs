//! Explicit machine topology.
//!
//! A [`crate::config::SimConfig`]'s geometry used to be *implicit*: the
//! core count was derived on the fly by dividing the benchmark list
//! length by `core.contexts` (truncating!), and the L2 cluster count
//! lived only inside `MemConfig`. A [`Topology`] names that geometry up
//! front — cores, contexts per core, L2 clusters — and validation
//! checks the rest of the configuration *against* it instead of
//! re-deriving it.
//!
//! Build one with [`TopologyBuilder`]:
//!
//! ```
//! use smtsim_core::topology::Topology;
//!
//! let t = Topology::builder()
//!     .cores(4)
//!     .contexts_per_core(2)
//!     .l2_clusters(1)
//!     .build()
//!     .unwrap();
//! assert_eq!(t.threads(), 8);
//! ```

/// The machine's explicit geometry.
///
/// Constructed by [`TopologyBuilder`] (which validates) or the
/// [`Topology::paper`] shorthand; carried by
/// [`crate::config::SimConfig`], whose `validate` cross-checks the
/// core/mem configs and the benchmark list against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of SMT cores.
    pub cores: u32,
    /// Hardware contexts (threads) per core; must match
    /// `CoreConfig::contexts`.
    pub contexts_per_core: u32,
    /// L2 clusters the cores are partitioned over; must match
    /// `MemConfig::l2_clusters` and divide `cores`.
    pub l2_clusters: u32,
}

impl Topology {
    /// The paper's Fig. 1 geometry for `cores` two-context cores on
    /// one shared L2.
    pub fn paper(cores: u32) -> Topology {
        Topology {
            cores,
            contexts_per_core: 2,
            l2_clusters: 1,
        }
    }

    /// Start building a topology (defaults to [`Topology::paper`] with
    /// one core).
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            topo: Topology::paper(1),
        }
    }

    /// Total hardware threads.
    pub fn threads(&self) -> usize {
        self.cores as usize * self.contexts_per_core as usize
    }

    /// Check the geometry's internal consistency. Every violation is a
    /// plain-language `Err` (never a panic): the driver wraps it in
    /// `SimError::InvalidConfig`.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("topology: cores == 0".into());
        }
        if self.contexts_per_core == 0 {
            return Err("topology: contexts_per_core == 0".into());
        }
        if self.l2_clusters == 0 {
            return Err("topology: l2_clusters == 0".into());
        }
        if !self.cores.is_multiple_of(self.l2_clusters) {
            return Err(format!(
                "topology: {} cores cannot be split evenly over {} L2 clusters",
                self.cores, self.l2_clusters
            ));
        }
        Ok(())
    }
}

/// Builder for [`Topology`]; `build` validates, so an invalid geometry
/// is caught at construction rather than inside the simulator.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    topo: Topology,
}

impl TopologyBuilder {
    /// Set the number of SMT cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.topo.cores = cores;
        self
    }

    /// Set the hardware contexts per core.
    pub fn contexts_per_core(mut self, contexts: u32) -> Self {
        self.topo.contexts_per_core = contexts;
        self
    }

    /// Set the number of L2 clusters.
    pub fn l2_clusters(mut self, clusters: u32) -> Self {
        self.topo.l2_clusters = clusters;
        self
    }

    /// Validate and return the topology.
    pub fn build(self) -> Result<Topology, String> {
        self.topo.validate()?;
        Ok(self.topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_validates() {
        for cores in [1, 2, 3, 4] {
            let t = Topology::paper(cores);
            t.validate().unwrap();
            assert_eq!(t.threads(), cores as usize * 2);
        }
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        assert!(Topology::builder().cores(0).build().is_err());
        assert!(Topology::builder().cores(2).contexts_per_core(0).build().is_err());
        assert!(Topology::builder().cores(2).l2_clusters(0).build().is_err());
        let err = Topology::builder().cores(3).l2_clusters(2).build().unwrap_err();
        assert!(err.contains("3 cores"), "{err}");
        assert!(Topology::builder().cores(4).l2_clusters(2).build().is_ok());
    }
}
