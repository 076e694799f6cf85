"""Tests for the DUT solve memo (``repro.dut.harness.solve_stamps``).

The harness memoises every network solve on the full content of the
network.  The memo is only sound if its key is complete - two states that
share a key must build the same network - so the property test below drives
every bundled DUT through random electrical states and compares each
memoised reading, bit for bit, with a network built from the harness' live
state the way the harness built it before the memo existed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.dut import LoadSpec, Network
from repro.dut.harness import solve_stamps
from repro.dut.network import GROUND
from repro.targets import CampaignSpec, build_campaign, campaignable_dut_names, get_dut


def _reference_network(harness, meter_keys=()) -> Network:
    """The network of the harness' live state, built without the memo key."""
    network = Network()
    network.add_voltage_source("vbat", GROUND, harness.ubatt)
    for pin in harness.ecu.pins:
        network.node(pin.key)
        drive = harness.ecu.output_drive(pin.name) if pin.is_output else None
        if drive is not None and drive.driven:
            network.add_thevenin(pin.key, drive.level * harness.ubatt, drive.resistance)
    for load in harness.loads:
        network.add_resistor(load.pin_a, load.pin_b, load.ohms)
    for pin, ohms in harness._applied_resistances.items():
        network.add_resistor(pin, GROUND, ohms)
    for pin, volts in harness._applied_voltages.items():
        network.add_voltage_source(pin, GROUND, volts)
    if len(meter_keys) == 1:
        network.add_resistor(meter_keys[0], GROUND, harness._dvm_impedance)
    elif len(meter_keys) == 2:
        network.add_resistor(meter_keys[0], meter_keys[1], harness._dvm_impedance)
    return network


def _assert_readings_exact(harness, rng) -> None:
    pins = [pin.key for pin in harness.ecu.pins]
    for meter in ((rng.choice(pins),), tuple(rng.sample(pins, 2))):
        reference = meter[1] if len(meter) == 2 else GROUND
        expected = _reference_network(harness, meter).voltage_between(meter[0], reference)
        uncached = harness._build_network(meter_pins=meter).voltage_between(
            meter[0], reference)
        got = harness.measure_voltage(meter)
        assert got.hex() == expected.hex() == uncached.hex(), (meter, got, expected)
    for pin in harness.ecu.pins:
        if not pin.is_output:
            continue
        drive = harness.ecu.output_drive(pin.key)
        expected = 0.0
        if drive.driven:
            volts = _reference_network(harness).voltage_between(pin.key, GROUND)
            expected = (drive.level * harness.ubatt - volts) / drive.resistance
        got = harness.measure_current(pin.key)
        assert got.hex() == expected.hex(), (pin.key, got, expected)


def _random_state(harness, rng) -> None:
    inputs = [pin.key for pin in harness.ecu.pins if not pin.is_output]
    if rng.random() < 0.3:
        # Below 6 V the ECU is unpowered and every output floats.
        harness.set_ubatt(rng.choice([0.0, 4.5, rng.uniform(0.0, 16.0)]))
    else:
        harness.set_ubatt(rng.uniform(6.5, 16.0))
    if rng.random() < 0.2:
        harness.reset()
    for pin in rng.sample(inputs, rng.randint(0, len(inputs))):
        choice = rng.random()
        if choice < 0.5:
            harness.apply_resistance(pin, rng.choice([0.0, 10.0, 470.0, 1e5, math.inf]))
        elif choice < 0.8:
            harness.apply_voltage(pin, rng.uniform(-1.0, 14.0))
        else:
            harness.release_resistance(pin)
    if rng.random() < 0.3:
        harness.advance(rng.uniform(0.0, 2.0))


@pytest.mark.parametrize("dut", campaignable_dut_names())
def test_memoised_readings_are_bit_identical_to_a_fresh_solve(dut):
    rng = random.Random(f"solve-memo-{dut}")
    harness = get_dut(dut).build_harness()
    pins = [pin.key for pin in harness.ecu.pins]
    for round_ in range(40):
        _random_state(harness, rng)
        _assert_readings_exact(harness, rng)
        if round_ == 20:
            # A load wired after the first measurements must reach the key.
            harness.add_load(LoadSpec(rng.choice(pins), ohms=rng.uniform(5.0, 500.0)))
            _assert_readings_exact(harness, rng)


def test_stimulus_insertion_order_is_part_of_the_key():
    target = get_dut("interior_light_ecu")
    inputs = [pin.key for pin in target.build_harness().ecu.pins if not pin.is_output]
    stimuli = [(inputs[0], 12.0), (inputs[1], 3.3), (inputs[2], 0.7)]
    keys = []
    rng = random.Random(7)
    for order in (stimuli, stimuli[::-1]):
        harness = target.build_harness()
        for pin, volts in order:
            harness.apply_voltage(pin, volts)
        keys.append(harness._stamps())
        _assert_readings_exact(harness, rng)
    assert keys[0] != keys[1]
    assert sorted(keys[0][6]) == sorted(keys[1][6])


def test_signed_zero_sources_solve_alike():
    # -0.0 V and +0.0 V compare equal, so they share one memo slot; the
    # network must therefore solve them to the same bits.
    solutions = []
    for volts in (0.0, -0.0):
        network = Network()
        network.add_voltage_source("a", GROUND, volts)
        network.add_resistor("a", "b", 10.0)
        solutions.append({node: v.hex() for node, v in network.solve().items()})
    assert solutions[0] == solutions[1]


def test_cached_voltages_are_read_only():
    harness = get_dut("interior_light_ecu").build_harness()
    voltages = solve_stamps(harness._stamps())
    with pytest.raises(TypeError):
        voltages[GROUND] = 1.0


def test_second_warm_family_pass_makes_no_solves(monkeypatch):
    campaigns = [build_campaign(CampaignSpec(dut=dut)) for dut in campaignable_dut_names()]
    first = [campaign.run(faults).table() for campaign, faults in campaigns]

    solves = []
    unpatched = Network.solve

    def counting_solve(self):
        solves.append(self)
        return unpatched(self)

    monkeypatch.setattr(Network, "solve", counting_solve)
    second = [campaign.run(faults).table() for campaign, faults in campaigns]
    assert second == first
    assert len(solves) == 0
