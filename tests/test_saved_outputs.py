"""The values verify and memory write, against copies saved from the program.

A change that means to keep the outputs as they are must keep these.  The
values were written by the program at commit 90faef4 (default seed and
shots, ``verify --realistic --efficiency 0.911`` on compiled targets and
``memory --max-n 20``).  They are compared at a relative 1e-12, which
leaves room for BLAS round-off between platforms and nothing more.
"""

import math

import pytest

from loopsynth.cli import main

REL = 1e-12

# verify --realistic --efficiency 0.911:
# (criterion, analytic, sampled, stderr) per row, keyed by (target, --n)
VERIFY = {
    ('epr', None): [
        ("var(x1-x2)+var(p1+p2)",
         0.47622465830228156, 0.49156397546658404, 0.0070307411936786305),
    ],
    ('ghz', 4): [
        ("var(x1-x2)+var(p1+p2+p3+p4)",
         0.8044683253994651, 0.8074889295990626, 0.012878485640563507),
        ("var(x2-x3)+var(p1+p2+p3+p4)",
         0.8093257199730652, 0.8095699156594477, 0.012891045998873467),
        ("var(x3-x4)+var(p1+p2+p3+p4)",
         0.8238153770894749, 0.8326054763565198, 0.013038154450491567),
        ("var(x1-x3)+var(p1+p2+p3+p4)",
         0.8158770090865757, 0.824947440542656, 0.012987620305037115),
        ("var(x2-x4)+var(p1+p2+p3+p4)",
         0.8347308842015955, 0.8451564257042211, 0.013124421789421152),
        ("var(x1-x4)+var(p1+p2+p3+p4)",
         0.8419050422840757, 0.8550778915490231, 0.013195596899787058),
    ],
    ('star', 4): [
        ("var(p1-x4)+var(p4-x1-x2-x3)",
         0.8419050422840757, 0.8574950722174073, 0.013240617481560954),
        ("var(p2-x4)+var(p4-x1-x2-x3)",
         0.8347308842015955, 0.8475736063726053, 0.013169685685618333),
        ("var(p3-x4)+var(p4-x1-x2-x3)",
         0.8238153770894749, 0.835022657024904, 0.01308371679708105),
        ("var(p1-p2)+var(p4-x1-x2-x3)",
         0.8044683253994651, 0.8099061102674467, 0.012924610870178961),
        ("var(p2-p3)+var(p4-x1-x2-x3)",
         0.8093257199730652, 0.8119870963278318, 0.012937126446642598),
        ("var(p1-p3)+var(p4-x1-x2-x3)",
         0.8158770090865757, 0.8273646212110402, 0.013033359311365589),
    ],
    ('cluster1d', 6): [
        ("p1-x2",
         0.24699936390380406, 0.24554975854514022, 0.004911486344097102),
        ("p2-x1-x3",
         0.33043504092511744, 0.32778664237250643, 0.006556388519087258),
        ("p3-x2-x4",
         0.336626372896375, 0.33921121512763863, 0.0067849028267633555),
        ("p4-x3-x5",
         0.3276327079601621, 0.3194659635702149, 0.006389958299187203),
        ("p5-x4-x6",
         0.3520181736792975, 0.3599712059234364, 0.007200144168889938),
        ("p6-x5",
         0.21170970055694438, 0.2116684393119067, 0.004233792186627875),
    ],
    ('infinite', 7): [
        ("p1-x2",
         0.24665335806900535, 0.24520917117983437, 0.004904673915514061),
        ("p2-x1-x3",
         0.3312670587564579, 0.3285437262855713, 0.006571531711743545),
        ("p3-x2-x4",
         0.33429966059101746, 0.33671414181000575, 0.006734956365514816),
        ("p4-x3-x5",
         0.3331485736835331, 0.3246380497163049, 0.0064934103678331795),
        ("p5-x4-x6",
         0.33350796799916343, 0.3415408697471128, 0.0068315005791610905),
        ("p6-x5-x7",
         0.33337074247812754, 0.3187645004941125, 0.006375927634528529),
    ],
}

# memory --max-n 20: (inseparability, stderr) for delays 1 to 20
MEMORY = [
    (0.4692106921729402, 0.006636304908490087),
    (0.5134524479588317, 0.0072620403957238625),
    (0.5576378155558654, 0.00788697835378633),
    (0.6016405910979957, 0.008509333811981634),
    (0.6453489761457321, 0.009127525543485395),
    (0.6886643308312099, 0.009740158430389593),
    (0.7315000244911046, 0.010346007207571681),
    (0.7737803765262837, 0.010944001482690055),
    (0.8154396807540782, 0.011533211937061577),
    (0.8564213070083334, 0.01211283761909693),
    (0.8966768741966862, 0.012682194248394825),
    (0.9361654894462546, 0.013240703454560993),
    (0.9748530483604438, 0.01378788288035529),
    (1.0127115917730092, 0.014323337083910589),
    (1.0497187147228813, 0.01484674917953865),
    (1.085857023686374, 0.015357873161066687),
    (1.1211136383940192, 0.01585652685575882),
    (1.1554797348289778, 0.01634258546069125),
    (1.1889501262542719, 0.01681597561698994),
    (1.2215228793483281, 0.017276669980624448),
]


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(float(g), w, rel_tol=REL, abs_tol=0.0), (g, w)


@pytest.mark.parametrize("target, n", list(VERIFY))
def test_verify_values_are_the_saved_ones(tmp_path, target, n):
    sched, csv = tmp_path / "s.json", tmp_path / "s.csv"
    size = [] if n is None else ["--n", str(n)]
    assert main(["compile", target, *size, "-o", str(sched)]) == 0
    assert main(["verify", str(sched), "--realistic", "--efficiency", "0.911",
                 "--csv", str(csv)]) == 0
    rows = read_rows(csv)
    assert [r[0] for r in rows] == [want[0] for want in VERIFY[target, n]]
    for row, want in zip(rows, VERIFY[target, n]):
        assert_close(row[1:4], want[1:])


def test_memory_values_are_the_saved_ones(tmp_path):
    csv = tmp_path / "m.csv"
    assert main(["memory", "--max-n", "20", "--csv", str(csv)]) == 0
    rows = read_rows(csv)
    assert [int(r[0]) for r in rows] == list(range(1, 21))
    for row, want in zip(rows, MEMORY):
        assert_close(row[2:4], want)
