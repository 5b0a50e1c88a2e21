//! Error types for model construction and schedule validation.

use std::fmt;

use crate::machine::MachineId;
use crate::task::TaskId;
use crate::time::Time;

/// Errors raised while building instances or validating schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A task's processing time is not strictly positive.
    NonPositiveProcessingTime { task: TaskId, p: Time },
    /// A task's release time is negative or not finite.
    InvalidReleaseTime { task: TaskId, r: Time },
    /// Tasks are not sorted by non-decreasing release time
    /// (the paper assumes `i < j ⇒ rᵢ ≤ rⱼ`).
    UnsortedReleases { first_violation: TaskId },
    /// A processing set is empty: the task could never run.
    EmptyProcessingSet { task: TaskId },
    /// A processing set references a machine index `≥ m`.
    MachineOutOfRange {
        task: TaskId,
        machine: usize,
        m: usize,
    },
    /// The instance has zero machines.
    NoMachines,
    /// A schedule is missing an assignment for a task.
    UnscheduledTask { task: TaskId },
    /// A schedule has more assignments than the instance has tasks.
    ExtraAssignments { expected: usize, got: usize },
    /// A task's start time is not finite.
    InvalidStartTime { task: TaskId, start: Time },
    /// A task was started before its release time.
    StartedBeforeRelease {
        task: TaskId,
        start: Time,
        release: Time,
    },
    /// A task was placed on a machine outside its processing set.
    OutsideProcessingSet { task: TaskId, machine: MachineId },
    /// Two tasks overlap in time on the same machine.
    MachineOverlap {
        machine: MachineId,
        first: TaskId,
        second: TaskId,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NonPositiveProcessingTime { task, p } => {
                write!(f, "task {task} has non-positive processing time {p}")
            }
            CoreError::InvalidReleaseTime { task, r } => {
                write!(f, "task {task} has invalid release time {r}")
            }
            CoreError::UnsortedReleases { first_violation } => write!(
                f,
                "tasks must be sorted by non-decreasing release time; task {first_violation} \
                 is released before its predecessor"
            ),
            CoreError::EmptyProcessingSet { task } => {
                write!(f, "task {task} has an empty processing set")
            }
            CoreError::MachineOutOfRange { task, machine, m } => write!(
                f,
                "task {task} references machine index {machine} but the cluster has {m} machines"
            ),
            CoreError::NoMachines => write!(f, "instance must have at least one machine"),
            CoreError::UnscheduledTask { task } => {
                write!(f, "schedule is missing an assignment for task {task}")
            }
            CoreError::ExtraAssignments { expected, got } => write!(
                f,
                "schedule has {got} assignments but the instance has {expected} tasks"
            ),
            CoreError::InvalidStartTime { task, start } => {
                write!(f, "task {task} has invalid start time {start}")
            }
            CoreError::StartedBeforeRelease {
                task,
                start,
                release,
            } => write!(
                f,
                "task {task} starts at {start} before its release time {release}"
            ),
            CoreError::OutsideProcessingSet { task, machine } => write!(
                f,
                "task {task} is scheduled on {machine}, outside its processing set"
            ),
            CoreError::MachineOverlap {
                machine,
                first,
                second,
            } => write!(
                f,
                "tasks {first} and {second} overlap in time on machine {machine}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::MachineOverlap {
            machine: MachineId(2),
            first: TaskId(0),
            second: TaskId(4),
        };
        let msg = e.to_string();
        assert!(msg.contains("M3"));
        assert!(msg.contains("T1"));
        assert!(msg.contains("T5"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::NoMachines);
        assert_eq!(e.to_string(), "instance must have at least one machine");
    }
}
