"""
Open versus semi-open cover maps
================================

Every open factor code is semi-open, but not conversely. Two cover maps
of the same flavor separate the notions: the golden-mean cover lives
over a shift of finite type and is open, while the even-shift cover is
semi-open yet cannot be open, because its codomain is strictly sofic.
"""

from shiftlab import (
    LabeledGraph,
    check_open,
    check_right_continuing_retract,
    check_semi_open,
    cover_code,
    image_presentation,
    is_sft,
)

golden = cover_code(LabeledGraph.make(
    ["0", "1"],
    ["v1", "v2"],
    [("e1", "v1", "v1", "0"), ("e2", "v1", "v2", "1"),
     ("e3", "v2", "v1", "0")],
))
even = cover_code(LabeledGraph.make(
    ["0", "1"],
    ["A", "B"],
    [("f1", "A", "A", "1"), ("f2", "A", "B", "0"), ("f3", "B", "A", "0")],
))

for name, code in (("golden", golden), ("even", even)):
    print(f"-- {name} cover --")
    print("codomain is an SFT:", is_sft(image_presentation(code)).verdict)
    semi, table = check_semi_open(code)
    print("semi-open:", semi.verdict)
    if table is not None:
        # each zone length l needs windows of radius at most k to lift
        print("lifting table (l, k):", table.entries,
              "uniform slack:", table.uniform)
    opn, _ = check_open(code, l_max=4, k_max=6)
    print("open:", opn.verdict)
    if opn.is_refuted:
        point = opn.payload["limit_point"]
        print("limit point escaping the cylinder image of zone",
              opn.payload["zone"]["word"], "- past cycle",
              point["past_cycle"], "chain", point["chain"],
              "future cycle", point["future_cycle"])

# openness of the golden cover shows up again as right-continuity with
# retract 0; the even cover refutes it at every tested retract
for name, code in (("golden", golden), ("even", even)):
    rd = check_right_continuing_retract(code, 0, "right")
    print(name, "right-continuing with retract 0:", rd.verdict.verdict)
