//! Integration tests of the typed region handles and the validating
//! submission builder: round-trip properties for `Region<T>` typed
//! accessors, and one test per [`SubmitError`] variant.

use atm_hash::Xoshiro256StarStar;
use atm_suite::prelude::*;

const CASES: usize = 32;

/// Registering a typed vector and reading it back through the store and
/// through a kernel's typed accessors must round-trip exactly, for every
/// element type and random contents.
#[test]
fn region_round_trips_through_store_and_kernel() {
    let mut rng = Xoshiro256StarStar::new(0x0707);
    for case in 0..CASES {
        let len = 1 + rng.below(64);
        let rt = RuntimeBuilder::new().build();

        let f32_data: Vec<f32> = (0..len).map(|_| rng.next_f32() * 100.0 - 50.0).collect();
        let f64_data: Vec<f64> = (0..len).map(|_| rng.next_f64() * 1e6 - 5e5).collect();
        let i32_data: Vec<i32> = (0..len).map(|_| rng.next_u32() as i32).collect();

        let f32_in = rt
            .store()
            .register_typed("f32_in", f32_data.clone())
            .unwrap();
        let f64_in = rt
            .store()
            .register_typed("f64_in", f64_data.clone())
            .unwrap();
        let i32_in = rt
            .store()
            .register_typed("i32_in", i32_data.clone())
            .unwrap();
        let f32_out = rt.store().register_zeros::<f32>("f32_out", len).unwrap();
        let f64_out = rt.store().register_zeros::<f64>("f64_out", len).unwrap();
        let i32_out = rt.store().register_zeros::<i32>("i32_out", len).unwrap();

        // Store-level round trip.
        assert_eq!(rt.store().contents(&f32_in), f32_data, "case {case}");
        assert_eq!(rt.store().contents(&f64_in), f64_data, "case {case}");
        assert_eq!(rt.store().contents(&i32_in), i32_data, "case {case}");

        // Kernel-level round trip: copy each input to its output through the
        // typed accessors; what comes out must be bit-identical.
        let copy3 = rt.register_task_type(
            TaskTypeBuilder::new("copy3", |ctx| {
                ctx.out(3, &ctx.arg::<f32>(0));
                ctx.out(4, &ctx.arg::<f64>(1));
                ctx.out(5, &ctx.arg::<i32>(2));
            })
            .arg::<f32>()
            .arg::<f64>()
            .arg::<i32>()
            .out::<f32>()
            .out::<f64>()
            .out::<i32>()
            .build(),
        );
        rt.task(copy3)
            .reads(&f32_in)
            .reads(&f64_in)
            .reads(&i32_in)
            .writes(&f32_out)
            .writes(&f64_out)
            .writes(&i32_out)
            .submit()
            .unwrap();
        rt.taskwait();

        assert_eq!(
            rt.store().contents(&f32_out),
            f32_data,
            "case {case}: f32 round trip"
        );
        assert_eq!(
            rt.store().contents(&f64_out),
            f64_data,
            "case {case}: f64 round trip"
        );
        assert_eq!(
            rt.store().contents(&i32_out),
            i32_data,
            "case {case}: i32 round trip"
        );
        rt.shutdown();
    }
}

fn two_param_type(rt: &Runtime) -> TaskTypeId {
    rt.register_task_type(
        TaskTypeBuilder::new("copy", |ctx| {
            let v = ctx.arg::<f64>(0);
            ctx.out(1, &v);
        })
        .arg::<f64>()
        .out::<f64>()
        .build(),
    )
}

#[test]
fn unknown_task_type_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let r = rt.store().register_zeros::<f64>("r", 1).unwrap();
    let bogus = TaskTypeId::from_raw(42);
    assert_eq!(
        rt.task(bogus).reads(&r).submit(),
        Err(SubmitError::UnknownTaskType { task_type: bogus })
    );
}

#[test]
fn unknown_region_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let other = RuntimeBuilder::new().build();
    let foreign = other.store().register_zeros::<f64>("foreign", 1).unwrap();
    let local = rt.store().register_zeros::<f64>("local", 1).unwrap();
    let tt = two_param_type(&rt);
    // `local` occupies slot 0 in `rt`; the foreign handle also has index 0,
    // so push it to a slot `rt` does not have.
    let _ = local;
    let foreign2 = other.store().register_zeros::<f64>("foreign2", 1).unwrap();
    assert_eq!(
        rt.task(tt).reads(&foreign).writes(&foreign2).submit(),
        Err(SubmitError::UnknownRegion {
            index: 1,
            region: foreign2.id()
        })
    );
}

#[test]
fn region_type_mismatch_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let other = RuntimeBuilder::new().build();
    // Slot 0 in `rt` holds f32; a foreign f64 handle with the same index is
    // caught by the store check.
    let _local = rt.store().register_zeros::<f32>("local", 1).unwrap();
    let foreign = other.store().register_zeros::<f64>("foreign", 1).unwrap();
    let tt = rt.register_task_type(TaskTypeBuilder::new("t", |_| {}).build());
    let err = rt.task(tt).reads(&foreign).submit().unwrap_err();
    match err {
        SubmitError::RegionTypeMismatch {
            index,
            declared,
            stored,
        } => {
            assert_eq!(index, 0);
            assert_eq!(declared, foreign.elem_type());
            assert_ne!(declared, stored);
        }
        other => panic!("expected a region type mismatch, got {other}"),
    }
}

#[test]
fn arity_mismatch_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let r = rt.store().register_zeros::<f64>("r", 1).unwrap();
    let tt = two_param_type(&rt);
    assert_eq!(
        rt.task(tt).reads(&r).submit(),
        Err(SubmitError::ArityMismatch {
            min: 2,
            max: Some(2),
            got: 1
        })
    );
    let extra = rt.store().register_zeros::<f64>("extra", 1).unwrap();
    assert_eq!(
        rt.task(tt).reads(&r).writes(&extra).writes(&extra).submit(),
        Err(SubmitError::ArityMismatch {
            min: 2,
            max: Some(2),
            got: 3
        })
    );
}

#[test]
fn mode_mismatch_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let a = rt.store().register_zeros::<f64>("a", 1).unwrap();
    let b = rt.store().register_zeros::<f64>("b", 1).unwrap();
    let tt = two_param_type(&rt);
    assert_eq!(
        rt.task(tt).writes(&a).writes(&b).submit(),
        Err(SubmitError::ModeMismatch {
            index: 0,
            expected: AccessMode::In,
            got: AccessMode::Out
        })
    );
    assert_eq!(
        rt.task(tt).reads(&a).reads_writes(&b).submit(),
        Err(SubmitError::ModeMismatch {
            index: 1,
            expected: AccessMode::Out,
            got: AccessMode::InOut
        })
    );
}

#[test]
fn type_mismatch_is_reported() {
    let rt = RuntimeBuilder::new().build();
    let doubles = rt.store().register_zeros::<f64>("doubles", 1).unwrap();
    let floats = rt.store().register_zeros::<f32>("floats", 1).unwrap();
    let tt = two_param_type(&rt);
    let err = rt
        .task(tt)
        .reads(&doubles)
        .writes(&floats)
        .submit()
        .unwrap_err();
    match err {
        SubmitError::TypeMismatch {
            index,
            expected,
            got,
        } => {
            assert_eq!(index, 1);
            assert_eq!(expected, doubles.elem_type());
            assert_eq!(got, floats.elem_type());
        }
        other => panic!("expected a signature type mismatch, got {other}"),
    }
}

/// A rejected submission must leave the runtime fully usable: nothing is
/// counted, nothing deadlocks, and a following valid submission runs.
#[test]
fn rejected_submissions_leave_the_runtime_consistent() {
    let rt = RuntimeBuilder::new().workers(2).build();
    let input = rt.store().register_typed("in", vec![21.0f64]).unwrap();
    let out = rt.store().register_zeros::<f64>("out", 1).unwrap();
    let tt = two_param_type(&rt);
    assert!(rt.task(tt).reads(&input).submit().is_err());
    rt.taskwait();
    assert_eq!(rt.stats().submitted, 0);
    rt.task(tt).reads(&input).writes(&out).submit().unwrap();
    rt.taskwait();
    assert_eq!(rt.store().contents(&out), vec![21.0]);
    assert_eq!(rt.stats().submitted, 1);
    rt.shutdown();
}

/// Duplicate region names surface as a `RegisterError` from the store.
#[test]
fn duplicate_region_names_are_rejected_at_registration() {
    let rt = RuntimeBuilder::new().build();
    rt.store().register_zeros::<f64>("shared", 1).unwrap();
    let err = rt.store().register_zeros::<f64>("shared", 2).unwrap_err();
    assert_eq!(err, RegisterError::DuplicateName("shared".to_string()));
}
