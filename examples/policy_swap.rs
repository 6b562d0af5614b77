//! The RTOS layer in action (§4.2–4.3): admit tasks through the kernel's
//! procfs-like interface, hot-swap the scheduler/DVS policy module while
//! tasks run, and add a task dynamically with the deferred first release
//! that prevents transient deadline misses.
//!
//! ```text
//! cargo run --example policy_swap
//! ```

use rtdvs::kernel::{FractionBody, KernelEvent, RtKernel, UniformBody};
use rtdvs::{Machine, PolicyKind, Time, Work};

fn main() {
    let mut kernel = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf).with_trace();

    // A cellular-phone-ish baseband set: protocol tick, audio codec frame,
    // and a display task.
    kernel
        .spawn(
            Time::from_ms(4.615), // GSM TDMA frame
            Work::from_ms(1.2),
            Box::new(FractionBody(0.8)),
        )
        .expect("admitted");
    kernel
        .spawn(
            Time::from_ms(20.0), // voice codec frame
            Work::from_ms(6.0),
            Box::new(UniformBody::new(11)),
        )
        .expect("admitted");
    kernel
        .spawn(
            Time::from_ms(100.0),
            Work::from_ms(10.0),
            Box::new(FractionBody(0.5)),
        )
        .expect("admitted");

    println!("-- running 200 ms under plain EDF (no DVS) --");
    kernel.run_for(Time::from_ms(200.0));
    println!("{}", kernel.status());
    let e_nodvs = kernel.energy();

    println!("-- hot-swapping to look-ahead EDF --");
    kernel.load_policy(PolicyKind::LaEdf);
    kernel.run_for(Time::from_ms(200.0));
    println!("{}", kernel.status());
    let e_laedf = kernel.energy() - e_nodvs;
    println!(
        "energy: {e_nodvs:.0} under EDF vs {e_laedf:.0} under laEDF over equal 200 ms windows\n"
    );

    println!("-- dynamically adding a camera task mid-flight --");
    let cam = kernel
        .spawn(
            Time::from_ms(33.3),
            Work::from_ms(8.0),
            Box::new(FractionBody(0.9)),
        )
        .expect("still schedulable");
    let deferred = kernel.log().iter().any(
        |(_, e)| matches!(e, KernelEvent::Admitted { handle, deferred: true } if handle == cam),
    );
    println!("camera task {cam} admitted (first release deferred: {deferred})");
    kernel.run_for(Time::from_ms(300.0));

    // An overload attempt is refused by admission control.
    let refused = kernel.spawn(
        Time::from_ms(10.0),
        Work::from_ms(9.0),
        Box::new(FractionBody(1.0)),
    );
    println!(
        "overload admission attempt: {}",
        refused
            .map(|h| h.to_string())
            .unwrap_or_else(|e| e.to_string())
    );

    let misses = kernel.misses().count();
    println!("\ntotal deadline misses across the whole run: {misses}");
    assert_eq!(misses, 0, "deferred release keeps the guarantee intact");
}
