//! JSON-friendly (de)serialization of instances and schedules.
//!
//! The model types keep their invariants behind private fields, so
//! serialization goes through explicit mirror structs and reloading
//! re-runs full validation — a corrupted or hand-edited file can never
//! produce an invalid [`Instance`] or mismatched [`Schedule`].

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::instance::Instance;
use crate::machine::MachineId;
use crate::procset::ProcSet;
use crate::schedule::{Assignment, Schedule};
use crate::task::Task;
use crate::time::Time;

/// Serializable mirror of an [`Instance`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceData {
    /// Machine count.
    pub machines: usize,
    /// `(release, processing time, processing set)` per task, in release
    /// order.
    pub tasks: Vec<TaskData>,
}

/// One serialized task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskData {
    /// Release time.
    pub release: Time,
    /// Processing time.
    pub ptime: Time,
    /// Zero-based machine indices of the processing set.
    pub set: Vec<usize>,
}

/// Serializable mirror of a [`Schedule`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleData {
    /// `(machine, start)` per task, aligned with the instance's order.
    pub assignments: Vec<(usize, Time)>,
}

impl From<&Instance> for InstanceData {
    fn from(inst: &Instance) -> Self {
        InstanceData {
            machines: inst.machines(),
            tasks: inst
                .iter()
                .map(|(_, t, s)| TaskData {
                    release: t.release,
                    ptime: t.ptime,
                    set: s.as_slice().to_vec(),
                })
                .collect(),
        }
    }
}

impl TryFrom<InstanceData> for Instance {
    type Error = CoreError;

    fn try_from(data: InstanceData) -> Result<Self, CoreError> {
        let tasks: Vec<Task> = data
            .tasks
            .iter()
            .map(|t| Task::new(t.release, t.ptime))
            .collect();
        let sets: Vec<ProcSet> = data
            .tasks
            .into_iter()
            .map(|t| ProcSet::new(t.set))
            .collect();
        Instance::new(data.machines, tasks, sets)
    }
}

impl From<&Schedule> for ScheduleData {
    fn from(s: &Schedule) -> Self {
        ScheduleData {
            assignments: s
                .assignments()
                .iter()
                .map(|a| (a.machine.index(), a.start))
                .collect(),
        }
    }
}

impl From<ScheduleData> for Schedule {
    fn from(data: ScheduleData) -> Self {
        Schedule::new(
            data.assignments
                .into_iter()
                .map(|(j, start)| Assignment::new(MachineId(j), start))
                .collect(),
        )
    }
}

/// Serializes an instance to JSON.
pub fn instance_to_json(inst: &Instance) -> String {
    serde_json::to_string_pretty(&InstanceData::from(inst)).expect("plain data serializes")
}

/// Parses and validates an instance from JSON.
pub fn instance_from_json(json: &str) -> Result<Instance, String> {
    let data: InstanceData = serde_json::from_str(json).map_err(|e| e.to_string())?;
    Instance::try_from(data).map_err(|e| e.to_string())
}

/// Serializes a schedule to JSON.
pub fn schedule_to_json(s: &Schedule) -> String {
    serde_json::to_string_pretty(&ScheduleData::from(s)).expect("plain data serializes")
}

/// Parses a schedule from JSON and validates it against its instance.
pub fn schedule_from_json(json: &str, inst: &Instance) -> Result<Schedule, String> {
    let data: ScheduleData = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let schedule = Schedule::from(data);
    schedule.validate(inst).map_err(|e| e.to_string())?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn demo() -> (Instance, Schedule) {
        let mut b = InstanceBuilder::new(3);
        b.push(Task::new(0.0, 2.0), ProcSet::interval(0, 1));
        b.push(Task::new(0.5, 1.0), ProcSet::singleton(2));
        let inst = b.build().unwrap();
        let s = Schedule::new(vec![
            Assignment::new(MachineId(0), 0.0),
            Assignment::new(MachineId(2), 0.5),
        ]);
        (inst, s)
    }

    #[test]
    fn instance_round_trips() {
        let (inst, _) = demo();
        let json = instance_to_json(&inst);
        let back = instance_from_json(&json).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn schedule_round_trips_with_validation() {
        let (inst, s) = demo();
        let json = schedule_to_json(&s);
        let back = schedule_from_json(&json, &inst).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn invalid_instance_json_is_rejected() {
        // Processing set references machine 9 of a 2-machine cluster.
        let json = r#"{"machines":2,"tasks":[{"release":0.0,"ptime":1.0,"set":[9]}]}"#;
        let err = instance_from_json(json).unwrap_err();
        assert!(err.contains("machine index 9"), "{err}");
    }

    #[test]
    fn unsorted_instance_json_is_rejected() {
        let json = r#"{"machines":1,"tasks":[
            {"release":5.0,"ptime":1.0,"set":[0]},
            {"release":1.0,"ptime":1.0,"set":[0]}]}"#;
        let err = instance_from_json(json).unwrap_err();
        assert!(err.contains("non-decreasing"), "{err}");
    }

    #[test]
    fn infeasible_schedule_json_is_rejected() {
        let (inst, s) = demo();
        let mut data = ScheduleData::from(&s);
        data.assignments[1].0 = 0; // task 2 is restricted to M3
        let json = serde_json::to_string(&data).unwrap();
        let err = schedule_from_json(&json, &inst).unwrap_err();
        assert!(err.contains("outside its processing set"), "{err}");
    }

    #[test]
    fn large_instance_round_trips_in_linear_time() {
        // 10⁵ tasks on 15 machines with 3 replicas each (~11 MB of
        // JSON): the string parser must not rescan the rest of the
        // document per character.
        let m = 15;
        let mut b = InstanceBuilder::new(m);
        for i in 0..100_000 {
            b.push(
                Task::new(i as f64 * 0.25, 1.0 + (i % 7) as f64 / 4.0),
                ProcSet::ring_interval(i % m, 3, m),
            );
        }
        let inst = b.build().unwrap();
        let back = instance_from_json(&instance_to_json(&inst)).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(instance_from_json(&"[".repeat(20_000)).is_err());
        let (inst, _) = demo();
        assert!(schedule_from_json(&"{\"assignments\":[".repeat(20_000), &inst).is_err());
    }

    #[test]
    fn infinite_start_is_rejected() {
        let (inst, _) = demo();
        let json = r#"{"assignments":[[0,0],[2,1e400]]}"#;
        let err = schedule_from_json(json, &inst).unwrap_err();
        assert!(err.contains("invalid start time inf"), "{err}");
    }

    #[test]
    fn garbage_json_is_an_error_not_a_panic() {
        assert!(instance_from_json("{not json").is_err());
        let (inst, _) = demo();
        assert!(schedule_from_json("[]", &inst).is_err());
    }
}
