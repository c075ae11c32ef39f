//! Initial configurations `C_0`: ring size and agent home nodes.

use std::fmt;

use crate::fault::FaultPlan;
use crate::NodeId;

/// Error returned when an [`InitialConfig`] is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialConfigError {
    /// The ring must have at least one node.
    EmptyRing,
    /// At least one agent is required.
    NoAgents,
    /// More agents than nodes (`k ≤ n` is required).
    TooManyAgents {
        /// Number of agents requested.
        agents: usize,
        /// Ring size.
        nodes: usize,
    },
    /// A home index was out of range.
    HomeOutOfRange {
        /// The offending home node index.
        home: usize,
        /// Ring size.
        nodes: usize,
    },
    /// Two agents share a home node (the paper requires distinct homes).
    DuplicateHome {
        /// The duplicated home node index.
        home: usize,
    },
    /// The ring or the agent count exceeds what the engine's packed
    /// agent words can index (65,536 nodes, 65,535 agents).
    TooLarge {
        /// Ring size.
        nodes: usize,
        /// Number of agents.
        agents: usize,
    },
}

/// The largest ring the engine runs: packed agent words index nodes
/// with a `u16`.
pub(crate) const MAX_NODES: usize = u16::MAX as usize + 1;

/// The most agents the engine runs: packed agent words index agents
/// with a `u16`.
pub(crate) const MAX_AGENTS: usize = u16::MAX as usize;

impl fmt::Display for InitialConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitialConfigError::EmptyRing => write!(f, "ring must have at least one node"),
            InitialConfigError::NoAgents => write!(f, "at least one agent is required"),
            InitialConfigError::TooManyAgents { agents, nodes } => {
                write!(f, "{agents} agents do not fit on {nodes} nodes")
            }
            InitialConfigError::HomeOutOfRange { home, nodes } => {
                write!(f, "home node {home} out of range for {nodes} nodes")
            }
            InitialConfigError::DuplicateHome { home } => {
                write!(f, "home node {home} used by more than one agent")
            }
            InitialConfigError::TooLarge { nodes, agents } => write!(
                f,
                "{agents} agents on {nodes} nodes exceed the engine's limits \
                 (at most {MAX_NODES} nodes and {MAX_AGENTS} agents)"
            ),
        }
    }
}

impl std::error::Error for InitialConfigError {}

/// An initial configuration: an `n`-node ring with `k` agents placed at
/// distinct home nodes, all in their initial state and each holding its
/// token (paper §2.1).
///
/// Agents are indexed in the order given; agent `i`'s home is `homes()[i]`.
/// When the engine starts, each agent sits at the head of the FIFO buffer
/// of the link *entering* its home node, guaranteeing it acts there first.
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::InitialConfig;
///
/// let init = InitialConfig::new(16, vec![0, 3, 7, 12])?;
/// assert_eq!(init.ring_size(), 16);
/// assert_eq!(init.agent_count(), 4);
/// assert_eq!(init.distance_sequence(), vec![3, 4, 5, 4]);
/// # Ok::<(), ringdeploy_sim::InitialConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialConfig {
    n: usize,
    homes: Vec<usize>,
    /// The fault plan the execution runs under; [`FaultPlan::none`]
    /// (the default) reproduces the fault-free engine bit for bit.
    faults: FaultPlan,
}

impl InitialConfig {
    /// Creates an initial configuration of `k = homes.len()` agents on an
    /// `n`-node ring.
    ///
    /// # Errors
    ///
    /// Returns an [`InitialConfigError`] if the sizes fail
    /// [`InitialConfig::check_size`], a home is out of range, or homes
    /// are not distinct.
    pub fn new(n: usize, homes: Vec<usize>) -> Result<Self, InitialConfigError> {
        Self::check_size(n, homes.len())?;
        let mut seen = vec![false; n];
        for &h in &homes {
            if h >= n {
                return Err(InitialConfigError::HomeOutOfRange { home: h, nodes: n });
            }
            if seen[h] {
                return Err(InitialConfigError::DuplicateHome { home: h });
            }
            seen[h] = true;
        }
        Ok(InitialConfig {
            n,
            homes,
            faults: FaultPlan::none(),
        })
    }

    /// Checks the sizes of an `n`-node ring with `k` agents — the checks
    /// [`InitialConfig::new`] makes before it looks at any home, so
    /// callers can refuse an instance before generating it.
    ///
    /// # Errors
    ///
    /// Returns an [`InitialConfigError`] if the ring is empty, there are
    /// no agents, `k > n`, or the ring exceeds the engine's limits.
    pub fn check_size(n: usize, k: usize) -> Result<(), InitialConfigError> {
        if n == 0 {
            return Err(InitialConfigError::EmptyRing);
        }
        if k == 0 {
            return Err(InitialConfigError::NoAgents);
        }
        if k > n {
            return Err(InitialConfigError::TooManyAgents {
                agents: k,
                nodes: n,
            });
        }
        if n > MAX_NODES || k > MAX_AGENTS {
            return Err(InitialConfigError::TooLarge {
                nodes: n,
                agents: k,
            });
        }
        Ok(())
    }

    /// Attaches a fault plan: the engine built from this configuration
    /// crash-stops the planned agents and arms the dynamic-edge budget.
    /// See [`crate::fault`].
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault plan ([`FaultPlan::none`] unless set).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The ring size `n`.
    pub fn ring_size(&self) -> usize {
        self.n
    }

    /// The number of agents `k`.
    pub fn agent_count(&self) -> usize {
        self.homes.len()
    }

    /// The home node of each agent, in agent order.
    pub fn homes(&self) -> &[usize] {
        &self.homes
    }

    /// The home node of agent `i` as a [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ k`.
    pub fn home_of(&self, i: usize) -> NodeId {
        NodeId(self.homes[i])
    }

    /// The distance sequence of this configuration starting from the
    /// lowest-indexed occupied node (forward hop distances between
    /// consecutive occupied nodes).
    pub fn distance_sequence(&self) -> Vec<u64> {
        let mut sorted = self.homes.clone();
        sorted.sort_unstable();
        let k = sorted.len();
        (0..k)
            .map(|j| {
                let a = sorted[j];
                let b = sorted[(j + 1) % k];
                let d = (b + self.n - a) % self.n;
                if d == 0 {
                    self.n as u64
                } else {
                    d as u64
                }
            })
            .collect()
    }

    /// The symmetry degree `l` of this configuration (Section 2.1; `1` for
    /// aperiodic rings, `k` for the uniform configuration).
    pub fn symmetry_degree(&self) -> usize {
        let d = self.distance_sequence();
        let k = d.len();
        // Smallest p dividing k with p-periodicity (cyclic period).
        for p in 1..=k {
            if !k.is_multiple_of(p) {
                continue;
            }
            if (p..k).all(|i| d[i] == d[i % p]) {
                return k / p;
            }
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_errors() {
        assert_eq!(
            InitialConfig::new(0, vec![]),
            Err(InitialConfigError::EmptyRing)
        );
        assert_eq!(
            InitialConfig::new(4, vec![]),
            Err(InitialConfigError::NoAgents)
        );
        assert_eq!(
            InitialConfig::new(2, vec![0, 1, 0]),
            Err(InitialConfigError::TooManyAgents {
                agents: 3,
                nodes: 2
            })
        );
        assert_eq!(
            InitialConfig::new(4, vec![0, 4]),
            Err(InitialConfigError::HomeOutOfRange { home: 4, nodes: 4 })
        );
        assert_eq!(
            InitialConfig::new(4, vec![1, 1]),
            Err(InitialConfigError::DuplicateHome { home: 1 })
        );
    }

    #[test]
    fn sizes_past_the_engine_limits_are_refused() {
        assert!(InitialConfig::new(MAX_NODES, vec![0, MAX_NODES - 1]).is_ok());
        for (nodes, agents) in [(MAX_NODES + 1, 2), (usize::MAX, 1)] {
            assert_eq!(
                InitialConfig::new(nodes, (0..agents).collect()),
                Err(InitialConfigError::TooLarge { nodes, agents })
            );
        }
        let every_node: Vec<usize> = (0..MAX_NODES).collect();
        assert_eq!(
            InitialConfig::new(MAX_NODES, every_node),
            Err(InitialConfigError::TooLarge {
                nodes: MAX_NODES,
                agents: MAX_NODES
            })
        );
    }

    #[test]
    fn distance_sequence_wraps_around() {
        let init = InitialConfig::new(12, vec![0, 1, 5, 7, 8, 10]).unwrap();
        assert_eq!(init.distance_sequence(), vec![1, 4, 2, 1, 2, 2]); // Fig. 1(a)
        assert_eq!(init.symmetry_degree(), 1);
    }

    #[test]
    fn symmetry_degree_of_fig1b() {
        // Fig. 1(b): distances (1,2,3,1,2,3) → l = 2.
        let init = InitialConfig::new(12, vec![0, 1, 3, 6, 7, 9]).unwrap();
        assert_eq!(init.distance_sequence(), vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(init.symmetry_degree(), 2);
    }

    #[test]
    fn uniform_configuration_has_degree_k() {
        let init = InitialConfig::new(16, vec![3, 7, 11, 15]).unwrap();
        assert_eq!(init.symmetry_degree(), 4);
    }

    #[test]
    fn single_agent() {
        let init = InitialConfig::new(5, vec![2]).unwrap();
        assert_eq!(init.distance_sequence(), vec![5]);
        assert_eq!(init.symmetry_degree(), 1);
        assert_eq!(init.home_of(0), NodeId(2));
    }

    #[test]
    fn homes_are_kept_in_agent_order() {
        let init = InitialConfig::new(8, vec![6, 2, 4]).unwrap();
        assert_eq!(init.homes(), &[6, 2, 4]);
        assert_eq!(init.home_of(1), NodeId(2));
    }
}
