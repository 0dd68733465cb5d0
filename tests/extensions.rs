//! Cross-crate integration tests for the extension features, driven
//! entirely through the `hide` facade's prelude.

use hide::prelude::*;

#[test]
fn protocol_simulation_through_facade() {
    let trace = Scenario::Starbucks.generate(300.0, 11);
    let protocol = ProtocolSimulation::new(&trace, NEXUS_ONE, 0.10);
    let outcome = protocol
        .run(NoopSink, NoopTrace)
        .expect("protocol run succeeds");
    let marked = protocol.marking_equivalent().run(NoopSink).unwrap();
    assert_eq!(
        outcome.stats.frames_consumed as usize,
        marked.received_frames
    );
    // Both agree HIDE leaves the phone mostly suspended at a café.
    assert!(outcome.energy.suspend_fraction() > 0.8);
    assert!(marked.energy.suspend_fraction() > 0.8);
}

#[test]
fn fleet_and_battery_arithmetic_compose() {
    let trace = Scenario::Wrl.generate(300.0, 12);
    let result = NetworkSimulation::new(&trace, GALAXY_S4, fleet(6, 1.0, 4))
        .run()
        .unwrap();
    assert!(result.fleet_saving > 0.3);

    // Fleet saving translates into standby life via the battery model.
    let battery = Battery::GALAXY_S4;
    let per_phone_before = result.baseline_power_mw / 6.0 / 1e3 + GALAXY_S4.suspend_power;
    let per_phone_after = result.total_power_mw / 6.0 / 1e3 + GALAXY_S4.suspend_power;
    let extension = battery.life_extension(per_phone_before, per_phone_after);
    assert!(extension > 1.2, "life extension {extension}");
}

#[test]
fn hybrid_and_unicast_compose() {
    let trace = Scenario::CsDept.generate(300.0, 13);
    let unicast = UnicastTrace::poisson(trace.duration, 0.1, 7);
    let result = SimulationBuilder::new(&trace, NEXUS_ONE)
        .solution(Solution::hybrid(0.10, 0.04))
        .unicast(&unicast)
        .run(NoopSink)
        .unwrap();
    assert!(result.energy.breakdown.total() > 0.0);
    assert!(result.wake_frames < result.received_frames + unicast.len());
    // Unicast deliveries wake the phone on top of the hybrid filter.
    let quiet = SimulationBuilder::new(&trace, NEXUS_ONE)
        .solution(Solution::hybrid(0.10, 0.04))
        .run(NoopSink)
        .unwrap();
    assert!(result.energy.breakdown.total() > quiet.energy.breakdown.total());
}

#[test]
fn usefulness_markings_drive_port_registries() {
    // The marking's port set plugs straight into a client registry —
    // the path the protocol simulation uses.
    let trace = Scenario::Wml.generate(200.0, 14);
    let marking = Usefulness::port_based(&trace, 0.08);
    let mut registry = OpenPortRegistry::new();
    for &p in marking.useful_ports() {
        registry.bind(p, [0, 0, 0, 0]).unwrap();
    }
    assert_eq!(registry.reportable_ports(), marking.useful_ports());

    let mut ap = AccessPoint::new(MacAddr::station(0));
    let mut client = HideClient::new(MacAddr::station(1), registry);
    client.set_aid(ap.associate(client.mac()).unwrap());
    client.set_bssid(ap.bssid());
    let msg = client.prepare_suspend().unwrap();
    let ack = ap
        .process_port_message(&msg, &mut ApCtx::untimed())
        .unwrap();
    client.handle_ack(&ack).unwrap();
    assert!(client.is_suspended());

    // Legacy coexistence through the same facade.
    let mut legacy = LegacyClient::new(MacAddr::station(2));
    legacy.set_aid(ap.associate(legacy.mac()).unwrap());
    let mut bytes = Vec::new();
    ap.dtim_beacon(0, &mut bytes);
    assert_eq!(
        legacy
            .handle_beacon(&BeaconView::parse(&bytes).unwrap())
            .unwrap(),
        WakeDecision::StaySuspended
    );
}
