"""DOT export: Hasse diagrams with operator tags and upset labels."""

from framelab import Poset
from framelab.dot import lattice_dot, space_dot
from framelab.lattices import birkhoff_lattice
from framelab.spaces import FinPriestley


def test_space_dot_tags_the_four_operators_of_the_focus():
    # U = {1} in the 2-chain 0 < 1: ker U = core U = U, while reg U and
    # cen U are empty because the downset and the component of 1 leave U
    assert space_dot(FinPriestley(Poset.chain(2)), focus=0b10) == (
        "digraph priestley {\n"
        "  rankdir=BT;\n"
        '  p0 [label="p0"];\n'
        '  p1 [label="p1\\nker,core", peripheries=2];\n'
        "  p0 -> p1;\n"
        "}\n"
    )


def test_space_dot_tags_every_operator_on_the_whole_space():
    dot = space_dot(FinPriestley(Poset.chain(2)), focus=0b11)
    assert dot.count("ker,core,reg,cen") == 2


def test_lattice_dot_labels_each_element_with_its_upset():
    assert lattice_dot(birkhoff_lattice(Poset.chain(2))) == (
        "digraph lattice {\n"
        "  rankdir=BT;\n"
        '  p0 [label="p0\\n{}"];\n'
        '  p1 [label="p1\\n{1}"];\n'
        '  p2 [label="p2\\n{0,1}"];\n'
        "  p0 -> p1;\n"
        "  p1 -> p2;\n"
        "}\n"
    )
