"""Tables I and II: the accelerator ISA and the machine configurations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.isa import (
    BufferId,
    RoccCommand,
    commands_per_target,
    decode_instruction,
    encode_instruction,
    ir_set_addr,
    ir_set_len,
    ir_set_size,
    ir_set_target,
    ir_start,
)
from repro.experiments.reporting import banner, format_table
from repro.perf.instances import F1_2XLARGE, R3_2XLARGE

#: Table I command summaries, straight from the paper.
TABLE1_DESCRIPTIONS = {
    "ir_set_addr": "Set buffer <buffer index>'s read/write memory address",
    "ir_set_target": "Set the starting read position of the current target",
    "ir_set_size": "Set the number of consensuses and reads",
    "ir_set_len": "Set the length of consensus <consensus id> in bytes",
    "ir_start": "Start the INDEL realigner unit <unit id>",
}


@dataclass
class Table1Result:
    commands: Dict[str, RoccCommand]
    encodings: Dict[str, int]
    roundtrip_ok: bool
    commands_for_32_consensuses: int


def run_table1() -> Table1Result:
    """Exercise all five instructions and their binary encodings."""
    examples = {
        "ir_set_addr": ir_set_addr(3, BufferId.CONSENSUS_BASES, 0x10_0000),
        "ir_set_target": ir_set_target(3, 10_000),
        "ir_set_size": ir_set_size(3, 8, 120),
        "ir_set_len": ir_set_len(3, 2, 1024),
        "ir_start": ir_start(3),
    }
    encodings = {name: encode_instruction(cmd) for name, cmd in examples.items()}
    roundtrip_ok = all(
        decode_instruction(
            encodings[name], cmd.rs1_value, cmd.rs2_value
        ) == cmd
        for name, cmd in examples.items()
    )
    return Table1Result(
        commands=examples,
        encodings=encodings,
        roundtrip_ok=roundtrip_ok,
        commands_for_32_consensuses=commands_per_target(32),
    )


@dataclass
class Table2Result:
    f1: object
    r3: object


def run_table2() -> Table2Result:
    return Table2Result(f1=F1_2XLARGE, r3=R3_2XLARGE)


def main() -> None:
    t1 = run_table1()
    print(banner("Table I: INDEL realignment accelerator instructions"))
    print(format_table(
        ["instruction", "funct", "encoding", "description"],
        [[name, int(cmd.funct), f"0x{t1.encodings[name]:08x}",
          TABLE1_DESCRIPTIONS[name]]
         for name, cmd in t1.commands.items()],
    ))
    print(f"\nencode/decode round-trip: {t1.roundtrip_ok}")
    print(f"commands per 32-consensus target: "
          f"{t1.commands_for_32_consensuses} (5 addr + 1 target + 1 size + "
          f"32 len + 1 start)")

    t2 = run_table2()
    print()
    print(banner("Table II: machine configurations"))
    rows = []
    for instance in (t2.f1, t2.r3):
        rows.append([
            instance.name, instance.processor,
            f"{instance.cores}C/{instance.threads}T",
            f"{instance.clock_ghz} GHz", f"{instance.memory_gib} GiB",
            instance.fpga or "-", f"${instance.price_per_hour}/hr",
        ])
    print(format_table(
        ["instance", "processor", "cores", "clock", "memory", "FPGA",
         "price"],
        rows,
    ))


if __name__ == "__main__":
    main()
