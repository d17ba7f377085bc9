import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from petrialign import (GadgetRecord, Marking, ex1_acyclic_system, ex1_system,
                        gen_shuffle_ssystem, gen_shuffle_tsystem, gen_tm_wfnet,
                        make_easy_sound_general, make_easy_sound_safe, parse_cost_file,
                        parse_net, parse_tm, parse_trace, parse_tree, serialize_net,
                        synchronous_product, tm_accepts, trace_system, tree_to_wfnet)
from petrialign.errors import DisconnectedNet, DuplicateId, ParseError
from petrialign.fixtures import choice_ssystem
from randgen import make_suite, random_tree

EX1_TEXT = """\
# running example
place p_init init=1
place p1
place p2
place p3
place p4
place p_final final=1
trans t1 label=a in=p_init out=p1,p2
trans t2 label=a in=p1 out=p3
trans t3 label=b in=p2 out=p4
trans t4 label=~ in=p3,p4 out=p_init
trans t5 label=b in=p3,p4 out=p_final
"""


def test_parse_ex1(ex1):
    system = parse_net(EX1_TEXT)
    assert system == ex1
    assert len(system.net.places) == 6
    assert len(system.net.transitions) == 5
    assert system.net.label("t4").silent


def test_parse_undeclared_place():
    with pytest.raises(ParseError) as err:
        parse_net("place p\ntrans t label=a in=q out=p\n")
    assert err.value.line == 2


def test_parse_repeated_or_empty_flow_id():
    # The net model is unweighted, so `in=p,p` is not a weight-2 arc, and an
    # empty id is not dropped.
    for flow in ("in=p,p out=q", "in=p,,q out=q", "in=p out=q,q", "in=p, out=q"):
        with pytest.raises(ParseError) as err:
            parse_net(f"place p init=2\nplace q final=1\ntrans t label=a {flow}\n")
        assert err.value.line == 3


def test_parse_duplicate_id():
    with pytest.raises(DuplicateId):
        parse_net("place p\nplace p\n")


def test_parse_repeated_place_option():
    # A repeated key is an error, not the last value.
    for options in ("init=1 init=2", "final=1 init=1 final=1"):
        with pytest.raises(ParseError) as err:
            parse_net(f"place q\nplace p {options}\ntrans t label=a in=q out=p\n")
        assert err.value.line == 2


def test_parse_counts_take_ascii_digits_only():
    # `str.isdigit` holds for other scripts' digits and for superscripts:
    # int() reads the first as a count and raises a bare ValueError on the
    # second.  Each is a ParseError on its line.
    for count in ("\u0663", "\u00b2", "\uff13", "1\u00b2"):
        with pytest.raises(ParseError) as err:
            parse_net(f"place q\nplace p init={count}\ntrans t label=a in=q out=p\n")
        assert err.value.line == 2
        with pytest.raises(ParseError) as err:
            parse_net(f"place q\nplace p final={count}\ntrans t label=a in=q out=p\n")
        assert err.value.line == 2
    system = parse_net("place q init=10\nplace p final=0\ntrans t label=a in=q out=p\n")
    assert system.initial == Marking({"q": 10}) and not system.final


def test_parse_disconnected():
    text = ("place p init=1\nplace q\nplace r final=1\n"
            "trans t1 label=a in=p out=q\n")
    with pytest.raises(DisconnectedNet):
        parse_net(text)


def test_parse_bad_directive():
    with pytest.raises(ParseError):
        parse_net("placeholder p\n")


@pytest.mark.parametrize("text, line", [
    ("place\n", 1),                                            # no id
    ("place p-q\n", 1),                                        # bad place id
    ("place p\ntrans t.1 label=a in=p out=p\n", 2),            # bad transition id
    ("place p\ntrans t label=a in=p out=p weight=2\n", 2),     # unknown option
    ("place p\ntrans t label a in=p out=p\n", 2),              # option with no =
    ("place p\ntrans t label=a label=b in=p out=p\n", 2),      # repeated option
    ("place p\ntrans t label=a in=p\n", 2),                    # missing option
    ("place p\ntrans t label=a-b in=p out=p\n", 2),            # bad label
    ("# no places\n", None),
])
def test_parse_net_errors(text, line):
    with pytest.raises(ParseError) as err:
        parse_net(text)
    assert err.value.line == line


def test_round_trip_is_identity(ex1):
    text = serialize_net(ex1)
    again = parse_net(text)
    assert again == ex1
    assert serialize_net(again) == text


def test_round_trip_multiset_markings():
    from petrialign import gen_shuffle_ssystem
    system = gen_shuffle_ssystem(("a", "b"), 3)
    assert parse_net(serialize_net(system)) == system


def test_round_trip_on_random_systems():
    """`parse_net(serialize_net(s)) == s` and the text is a fixed point, on
    300 suite systems and 60 random process trees (all weakly connected)."""
    rng = random.Random(29)
    trees = [tree_to_wfnet(random_tree(rng, 3)) for _ in range(60)]
    for system in [s for s, _ in make_suite(29, 300)] + trees:
        text = serialize_net(system)
        again = parse_net(text)
        assert again == system, text
        assert serialize_net(again) == text


def test_parse_trace_forms():
    assert parse_trace("a,b,a,a") == ("a", "b", "a", "a")
    assert parse_trace("") == ()
    assert parse_trace("  ") == ()
    assert parse_trace("a, b") == ("a", "b")
    with pytest.raises(ParseError):
        parse_trace("a,,b")
    with pytest.raises(ParseError):
        parse_trace("a,b c")


def test_parse_cost_file(ex1):
    text = """\
# overrides
sync a t1 1/2
log a 2
model t5 0.25
"""
    c = parse_cost_file(text, ex1)
    assert c.sync("a", "t1") == Fraction(1, 2)
    assert c.sync("a", "t2") == 0            # default kept
    assert c.log("a") == 2
    assert c.log("b") == 1
    assert c.model("t5") == Fraction(1, 4)
    assert c.model("t4") == 0                # silent default


def test_parse_cost_file_errors(ex1):
    with pytest.raises(ParseError):
        parse_cost_file("model nosuch 1\n", ex1)
    with pytest.raises(ParseError):
        parse_cost_file("log a -3\n", ex1)
    # An unknown transition, one carrying another label, and a silent one.
    for line in ("sync a t99 1/2", "sync b t1 5", "sync a t4 1"):
        with pytest.raises(ParseError, match=r"\(line 2\)"):
            parse_cost_file(f"log a 2\n{line}\n", ex1)


def test_parse_cost_file_repeated_move(ex1):
    # A repeated move is an error, not the last cost.
    for line in ("sync a t1 1/2", "log a 5", "model t5 1"):
        with pytest.raises(ParseError, match=r"\(line 2\)"):
            parse_cost_file(f"{line}\n{line.rsplit(' ', 1)[0]} 2\n", ex1)


SCANNER_TEXT = """\
states q0 qacc qrej
blank _
tape a _
space 1
delta q0 a -> qacc _ S
delta q0 _ -> qacc _ S
"""


def test_parse_tm():
    tm = parse_tm(SCANNER_TEXT)
    assert tm.initial == "q0"
    assert tm.blank == "_"
    assert tm.input_alphabet == ("a",)
    assert tm_accepts(tm, ())


def test_parse_tm_missing_directive():
    with pytest.raises(ParseError):
        parse_tm("states q0 qacc qrej\nblank _\n")


def test_parse_tm_repeated_directive():
    # A directive given twice is an error, not the last value.
    for line in ("states q0 qacc qrej", "blank _", "tape a _", "space 1"):
        with pytest.raises(ParseError) as err:
            parse_tm(SCANNER_TEXT + line + "\n")
        assert err.value.line == 7


def test_parse_tm_duplicate_rule():
    with pytest.raises(ParseError) as err:
        parse_tm(SCANNER_TEXT + "delta q0 a -> qrej _ S\n")
    assert err.value.line == 7


def test_parse_tm_space_takes_ascii_digits_only():
    for count in ("\u0663", "\u00b2", "\uff13", "1\u00b2"):
        with pytest.raises(ParseError) as err:
            parse_tm(SCANNER_TEXT.replace("space 1", f"space {count}"))
        assert err.value.line == 4
    assert parse_tm(SCANNER_TEXT.replace("space 1", "space 12")).space_bound == 12


def test_parse_tm_partial_rules_rejected():
    text = ("states q0 qacc qrej\nblank _\ntape a _\nspace 1\n"
            "delta q0 a -> qacc _ S\n")
    with pytest.raises(ParseError):
        parse_tm(text)


SCANNER = Path(__file__).parents[1] / "demos" / "scanner.tm"

# Each gadget edit, and the record it returns: its fresh places and
# transitions and their move-cost overrides.
GADGETS = {
    "safe_ex1": (lambda: make_easy_sound_safe(ex1_system(), 3),
                 GadgetRecord((), ("t_skip",), {"t_skip": Fraction(4)})),
    "general_sshuffle": (
        lambda: make_easy_sound_general(gen_shuffle_ssystem(("a", "b"), 2), Fraction(5, 2)),
        GadgetRecord(("gbuf0", "gbuf1", "gbuf2"), ("gin0", "gin1", "gout0", "gout1"),
                     dict.fromkeys(("gin0", "gin1", "gout0", "gout1"), Fraction(7, 4)))),
    "general_ex1": (lambda: make_easy_sound_general(ex1_system(), 1),
                    GadgetRecord(("gbuf0", "gbuf1"), ("gin0", "gout0"),
                                 dict.fromkeys(("gin0", "gout0"), Fraction(1)))),
}


@pytest.mark.parametrize("name", GADGETS)
def test_gadgets_keep_their_records(name):
    make, record = GADGETS[name]
    assert make()[1] == record


# The sha256 of each generated net's file.  The file lists places and
# transitions in declaration order, with their ids, labels, arcs and
# markings, which the benchmark's inputs and every pinned tie-break read.
GENERATED = {
    "tree": ("74985c9ab89eef4168adc080f980351979c073674c9333e4b71de7d22c101411", lambda: tree_to_wfnet(
        parse_tree("seq(a, par(b, c), xor(d, tau), loop(e, f))"))),
    "tshuffle": ("dad328c7247feabf6b123b634eca7c7e46a6562c940e3f03c62110e51a1324a4",
                 lambda: gen_shuffle_tsystem([("a", "b"), ("c", "d")])),
    "sshuffle": ("fb4a553a4937ee7a948de892216724ccfe2ac7c396d678b85cfe28e06f97f462",
                 lambda: gen_shuffle_ssystem(("a", "b"), 2)),
    "trace": ("1a9542d481ca4c8822025b21fe962ed5b70a3f68048023edad4ac420b01f0586",
              lambda: trace_system(("a", "b", "a"))),
    "machine_aa": ("66e7445eb061f96a665c85a9d324174e28465ce6535f909a407c61cac808bf1a",
                   lambda: gen_tm_wfnet(parse_tm(SCANNER.read_text()), ("a", "a"))[0]),
    "machine_ab": ("70107929b9e99c499eadab6330d3792acd468f6437351dd84bb38af6ece70d73",
                   lambda: gen_tm_wfnet(parse_tm(SCANNER.read_text()), ("a", "b"))[0]),
    "product": ("0dc47de3d519ce68fbdb4245d83e50efab631af83526b4cf32f5ac35a1263440",
                lambda: synchronous_product(trace_system(("a", "b")), ex1_system())),
    "ex1": ("6345c2181040ef3669e824c65d112a96ededd6c4ff900ed67f572ead91152332", ex1_system),
    "ex1_acyclic": ("fffe6d91215c8469d312a3c5a846c4507679edaea6ee73c64d6c09ef52314dbe",
                    ex1_acyclic_system),
    "choice_ssystem": ("5813425d30de487956eab249b2224a83c8a963ec6ba5a2e45107567c783ed382",
                       choice_ssystem),
    "safe_ex1": ("a24cb2988cc38a6ab529fddf866b2f96e6680e3fa3de3c6fb32730393d67940f",
                 lambda: GADGETS["safe_ex1"][0]()[0]),
    "general_sshuffle": ("8dbfa550bbbd1948acba93822f371a1c154d364769a7c9d5fd2162ce55d0691c",
                         lambda: GADGETS["general_sshuffle"][0]()[0]),
    "general_ex1": ("165f65d44cbaf1296fbbdb24c0b70072b333933d13c620c3a157f13246a55067",
                    lambda: GADGETS["general_ex1"][0]()[0]),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_nets_keep_their_ids_and_order(name):
    digest, make = GENERATED[name]
    text = serialize_net(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # A product's ids hold "|" and ":", which a net file does not take.
    if name != "product":
        assert serialize_net(parse_net(text)) == text
