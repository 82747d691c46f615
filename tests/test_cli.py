"""Command-line front end: JSON documents, caching, exit codes."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qtmac import cli, comb, emac, istar, pieri, verify
from qtmac.scalar import GENERIC, specialized
from qtmac.algebra import ZPolynomial


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute commands
# ---------------------------------------------------------------------------

def test_pieri_golden_document(capsys):
    code, out, _ = run_cli(["pieri", "--eta", "0,0", "--r", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["kind"] == "pieri"
    assert doc["n"] == 2
    assert doc["eta"] == "0,0"
    assert doc["r"] == 1
    assert doc["params"] == "symbolic"
    assert doc["payload"]["entries"] == [
        ["0,1", {"num": "q*t - t", "den": "q*t - 1"}],
        ["1,0", {"num": "1", "den": "1"}],
    ]


# Full stdout of two runs, byte for byte: a symbolic n = 3 table with r = 2
# and a specialized n = 4 table at a point with negative q.
PIERI_012_R2 = (
    '{"schema": "1", "kind": "pieri", "n": 3, "eta": "0,1,2", "r": 2, '
    '"params": "symbolic", "payload": {"entries": [["0,2,3", '
    '{"num": "1", "den": "1"}], ["1,1,3", {"num": "q - 1", '
    '"den": "q*t - 1"}], ["1,2,2", {"num": "q^2*t^3 - q*t^3 - q + 1", '
    '"den": "q^2*t^4 - 2*q*t^2 + 1"}], ["2,1,2", '
    '{"num": "-q^2*t^2 + 2*q^2*t + q*t^2 - q^2 - 2*q*t + q", '
    '"den": "q^3*t^4 - 2*q^2*t^3 - q^2*t^2 + q*t^2 + 2*q*t - 1"}], '
    '["2,2,1", {"num": "q^2*t - q^2 - q*t + q", '
    '"den": "q^3*t^4 - q^2*t^2 - q*t^2 + 1"}]]}}\n'
)

PIERI_1010_R1_NEG_Q = (
    '{"schema": "1", "kind": "pieri", "n": 4, "eta": "1,0,1,0", "r": 1, '
    '"params": "q=-2/3,t=5/7", "payload": {"entries": [["0,0,1,2", '
    '{"num": "-1486837500", "den": "19778579951"}], ["0,1,0,2", '
    '{"num": "-6300000", "den": "3112365373"}], ["0,1,2,0", '
    '{"num": "3000", "den": "189317"}], ["0,2,1,0", {"num": "-10500", '
    '"den": "67177"}], ["1,0,0,2", {"num": "-52500", "den": "509639"}], '
    '["1,0,1,1", {"num": "1267776775", "den": "1506138481"}], '
    '["1,0,2,0", {"num": "25", "den": "31"}], ["1,1,0,1", '
    '{"num": "5371800", "den": "237006563"}], ["1,1,1,0", '
    '{"num": "44765", "den": "38809"}], ["2,0,1,0", {"num": "1", '
    '"den": "1"}]]}}\n'
)


# Two of the queries that pruning to the ceiling eta + (1^n) shortens most.
PIERI_00100_R4 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "0,0,1,0,0", "r": 4, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,1,1,1,2", '
    '{"num": "-65581774973", "den": "5416539548328"}], ["0,1,1,2,1", '
    '{"num": "-3857751469", "den": "233476849908"}], ["0,1,2,1,1", '
    '{"num": "4913", "den": "17562"}], ["1,0,1,1,2", '
    '{"num": "-3857751469", "den": "233476849908"}], ["1,0,1,2,1", '
    '{"num": "-226926557", "den": "10063886538"}], ["1,0,2,1,1", '
    '{"num": "289", "den": "757"}], ["1,1,0,1,2", '
    '{"num": "73297277911", "den": "2427912499968"}], ["1,1,0,2,1", '
    '{"num": "4311604583", "den": "104653784448"}], ["1,1,1,1,1", '
    '{"num": "498506705", "den": "1134859367"}], ["1,1,2,0,1", '
    '{"num": "17", "den": "30"}], ["1,1,2,1,0", {"num": "1", "den": "1"}]]}}\n'
)

PIERI_0001_R3 = (
    '{"schema": "1", "kind": "pieri", "n": 4, "eta": "0,0,0,1", "r": 3, '
    '"params": "symbolic", "payload": {"entries": [["0,1,1,2", '
    '{"num": "q*t^2 - t^2", "den": "q*t^2 - 1"}], ["1,0,1,2", '
    '{"num": "q*t - t", "den": "q*t - 1"}], ["1,1,0,2", '
    '{"num": "1", "den": "1"}], ["1,1,1,1", {"num": "q - 1", '
    '"den": "q*t^3 - 1"}]]}}\n'
)


# The other three n = 5 tables of the specialized benchmark queries, the
# heaviest spectral evaluations the CLI makes.
PIERI_10201_R2 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "1,0,2,0,1", "r": 2, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,0,1,2,3", '
    '{"num": "641389963290556982331401", "den": '
    '"237577796642290449096864000"}], ["0,0,1,3,2", {"num": '
    '"78887159789581", "den": "37051215680841600"}], ["0,0,2,1,3", {"num": '
    '"437791795826123800919", "den": "62768242177619669510400"}], '
    '["0,0,2,2,2", {"num": "24093195201757376695", "den": '
    '"427904710725561668608"}], ["0,0,2,3,1", {"num": "-94982606624477", '
    '"den": "6368440604295360"}], ["0,0,3,1,2", {"num": "-702559", "den": '
    '"17191470"}], ["0,0,3,2,1", {"num": "13348621", "den": "213738193"}], '
    '["0,1,0,2,3", {"num": "-3643719023520956809", "den": '
    '"26032911502238572608000"}], ["0,1,0,3,2", {"num": '
    '"-484130499628658597", "den": "355546567014543993600"}], '
    '["0,1,2,0,3", {"num": "100465937", "den": "15472323000"}], '
    '["0,1,2,1,2", {"num": "-3222326639378365366953105", "den": '
    '"61302591644143097158536448"}], ["0,1,2,2,1", {"num": '
    '"7782102050167632672485", "den": "323923866019250183136256"}], '
    '["0,1,3,0,2", {"num": "-41327", "den": "681300"}], ["0,2,0,1,3", '
    '{"num": "-484130499628658597", "den": "578888193797469158400"}], '
    '["0,2,0,2,2", {"num": "-23756426008101697548495", "den": '
    '"17173541552522802358435856"}], ["0,2,0,3,1", {"num": '
    '"9198479492944513343", "den": "5143573669477069774080"}], '
    '["0,2,1,0,3", {"num": "616559455369", "den": "97143495699600"}], '
    '["0,2,1,1,2", {"num": "-1140595073290712134095", "den": '
    '"161961933009625091568128"}], ["0,2,1,2,1", {"num": '
    '"2333277321595033455647005", "den": "724910803011909669418801152"}], '
    '["0,2,2,0,2", {"num": "7860249102420", "den": "122482457760457"}], '
    '["0,2,2,1,1", {"num": "3224100841339370717725", "den": '
    '"79800836967405291657728"}], ["0,2,3,0,1", {"num": "785213", "den": '
    '"9856140"}], ["1,0,0,2,3", {"num": "1498856036002039", "den": '
    '"1146319308773164800"}], ["1,0,0,3,2", {"num": "199148704084187", '
    '"den": "15655947468716160"}], ["1,0,1,1,3", {"num": '
    '"1084193784079081951275", "den": "23021811579392456472904"}], '
    '["1,0,1,3,1", {"num": "-955413278399151", "den": '
    '"46746283783995152"}], ["1,0,2,0,3", {"num": "-41327", "den": '
    '"681300"}], ["1,0,2,1,2", {"num": "86217378065363823109573", "den": '
    '"323923866019250183136256"}], ["1,0,2,2,1", {"num": '
    '"-61508510103310008739", "den": "1283714132176685005824"}], '
    '["1,0,3,0,2", {"num": "17", "den": "30"}], ["1,0,3,1,1", {"num": '
    '"170175780", "den": "433798093"}], ["1,1,0,1,3", {"num": '
    '"-932164888624771659", "den": "60823808664180862544"}], ["1,1,0,3,1", '
    '{"num": "651485698837287743", "den": "49842361338890704288"}], '
    '["1,1,1,0,3", {"num": "7860249102420", "den": "122482457760457"}], '
    '["1,1,2,0,2", {"num": "197737710", "den": "433798093"}], '
    '["1,1,2,1,1", {"num": "121847902791271192329325", "den": '
    '"323923866019250183136256"}], ["1,1,3,0,1", {"num": "333678", "den": '
    '"573049"}], ["1,2,0,1,2", {"num": "-301089259025801245857", "den": '
    '"46043623158784912945808"}], ["1,2,0,2,1", {"num": '
    '"20216252720619875953033", "den": "17173541552522802358435856"}], '
    '["1,2,1,0,2", {"num": "2538860460081660", "den": '
    '"92719220524665949"}], ["1,2,1,1,1", {"num": '
    '"378724992326852501505175", "den": "7514862529762314024093696"}], '
    '["1,2,2,0,1", {"num": "-6688917863628", "den": "122482457760457"}], '
    '["2,0,0,1,3", {"num": "-616559455369", "den": "58733763298560"}], '
    '["2,0,0,2,2", {"num": "-2016983587731541", "den": '
    '"160696984581719584"}], ["2,0,0,3,1", {"num": "11714629652011", '
    '"den": "521864915623872"}], ["2,0,1,0,3", {"num": "785213", "den": '
    '"9856140"}], ["2,0,1,1,2", {"num": "-922627651549650131085", "den": '
    '"23021811579392456472904"}], ["2,0,1,2,1", {"num": '
    '"1600662241122097701971137", "den": "171735415525228023584358560"}], '
    '["2,0,2,0,2", {"num": "333678", "den": "573049"}], ["2,0,2,1,1", '
    '{"num": "3035284787961044596407", "den": "11343158224915985705704"}], '
    '["2,0,3,0,1", {"num": "1", "den": "1"}], ["2,1,0,1,2", {"num": '
    '"3966270212383832353", "den": "304119043320904312720"}], '
    '["2,1,0,2,1", {"num": "-9754285196782649034083", "den": '
    '"1361178986989918284684480"}], ["2,1,1,0,2", {"num": '
    '"-6688917863628", "den": "122482457760457"}], ["2,1,2,0,1", {"num": '
    '"268948674619", "den": "808999060505"}], ["2,2,0,1,1", {"num": '
    '"-2254275774523487", "den": "160696984581719584"}], ["2,2,1,0,1", '
    '{"num": "17225459394", "den": "161799812101"}]]}}\n'
)

PIERI_01010_R3 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "0,1,0,1,0", "r": 3, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,0,1,2,2", '
    '{"num": "635685784357663325", "den": "29256217012693915584"}], '
    '["0,0,2,1,2", {"num": "-178185682601641", "den": '
    '"38647578616504512"}], ["0,0,2,2,1", {"num": "366486389555", "den": '
    '"13203819137856"}], ["0,1,0,2,2", {"num": "-1307486763996371387", '
    '"den": "41739384905824872960"}], ["0,1,1,1,2", {"num": '
    '"-7478656286560745", "den": "333378831174242622"}], ["0,1,1,2,1", '
    '{"num": "18463984257020825", "den": "86220626989717002"}], '
    '["0,1,2,0,2", {"num": "-3385527969431179", "den": '
    '"1977658652840216760"}], ["0,1,2,1,1", {"num": "-5175540682741", '
    '"den": "113897789946786"}], ["0,1,2,2,0", {"num": "-13348621", "den": '
    '"398833020"}], ["0,2,0,1,2", {"num": "-702559", "den": "11078695"}], '
    '["0,2,0,2,1", {"num": "289", "den": "757"}], ["0,2,1,0,2", {"num": '
    '"4311604583", "den": "148758394140"}], ["0,2,1,1,1", {"num": '
    '"10644880055", "den": "38912808318"}], ["0,2,1,2,0", {"num": "17", '
    '"den": "30"}], ["1,0,0,2,2", {"num": "87984191606597", "den": '
    '"1837929762475776"}], ["1,0,1,1,2", {"num": "1147412840765582301625", '
    '"den": "85632947196155090914368"}], ["1,0,1,2,1", {"num": '
    '"-124285886669325103723", "den": "1845579689884107841424"}], '
    '["1,0,2,0,2", {"num": "64325031419192401", "den": '
    '"24587844252346207044"}], ["1,0,2,1,1", {"num": "794057329249537925", '
    '"den": "29256217012693915584"}], ["1,0,2,2,0", {"num": "253623799", '
    '"den": "4958613138"}], ["1,1,0,1,2", {"num": '
    '"-472002721802690070707", "den": "24434235923869880630784"}], '
    '["1,1,0,2,1", {"num": "193402559491317864271", "den": '
    '"877686510380817467520"}], ["1,1,1,0,2", {"num": '
    '"158811465849907585", "den": "5379620414766596352"}], ["1,1,1,1,1", '
    '{"num": "47358136975", "den": "150459431898"}], ["1,1,1,2,0", {"num": '
    '"125233883", "den": "308423844"}], ["1,1,2,0,1", {"num": '
    '"689095861883", "den": "147284979483630"}], ["1,1,2,1,0", {"num": '
    '"-283461893", "den": "10063886538"}], ["1,2,0,0,2", {"num": '
    '"253623799", "den": "4958613138"}], ["1,2,0,1,1", {"num": '
    '"626169415", "den": "1677314423"}], ["1,2,0,2,0", {"num": "1", "den": '
    '"1"}], ["1,2,1,0,1", {"num": "-877591", "den": "11078695"}], '
    '["1,2,1,1,0", {"num": "361", "den": "757"}]]}}\n'
)

PIERI_10101_R3 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "1,0,1,0,1", "r": 3, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,0,2,2,2", '
    '{"num": "87984191606597", "den": "1837929762475776"}], ["0,1,1,2,2", '
    '{"num": "1026632541737626269875", "den": "85632947196155090914368"}], '
    '["0,1,2,1,2", {"num": "-111203161756764566489", "den": '
    '"1845579689884107841424"}], ["0,1,2,2,1", {"num": '
    '"710472347223270775", "den": "29256217012693915584"}], ["0,2,0,2,2", '
    '{"num": "64325031419192401", "den": "24587844252346207044"}], '
    '["0,2,1,1,2", {"num": "710472347223270775", "den": '
    '"29256217012693915584"}], ["0,2,1,2,1", {"num": "-199148704084187", '
    '"den": "38647578616504512"}], ["0,2,2,0,2", {"num": "253623799", '
    '"den": "4958613138"}], ["0,2,2,1,1", {"num": "409602435385", "den": '
    '"13203819137856"}], ["1,0,1,2,2", {"num": "-422318224770827958001", '
    '"den": "24434235923869880630784"}], ["1,0,2,1,2", {"num": '
    '"173044395334337036453", "den": "877686510380817467520"}], '
    '["1,0,2,2,1", {"num": "-1461308736231238609", "den": '
    '"41739384905824872960"}], ["1,1,0,2,2", {"num": "142094469444654155", '
    '"den": "5379620414766596352"}], ["1,1,1,1,2", {"num": "37912746775", '
    '"den": "150459431898"}], ["1,1,1,2,1", {"num": "-9341850932347505", '
    '"den": "333378831174242622"}], ["1,1,2,0,2", {"num": "112051369", '
    '"den": "308423844"}], ["1,1,2,1,1", {"num": "23064008016555425", '
    '"den": "86220626989717002"}], ["1,2,0,1,2", {"num": "616559455369", '
    '"den": "147284979483630"}], ["1,2,0,2,1", {"num": '
    '"-3783825377599553", "den": "1977658652840216760"}], ["1,2,1,0,2", '
    '{"num": "-253623799", "den": "10063886538"}], ["1,2,1,1,1", {"num": '
    '"-6464948742109", "den": "113897789946786"}], ["1,2,2,0,1", {"num": '
    '"-14919047", "den": "398833020"}], ["2,0,0,2,2", {"num": "253623799", '
    '"den": "4958613138"}], ["2,0,1,1,2", {"num": "560256845", "den": '
    '"1677314423"}], ["2,0,1,2,1", {"num": "-785213", "den": "11078695"}], '
    '["2,0,2,0,2", {"num": "1", "den": "1"}], ["2,0,2,1,1", {"num": "323", '
    '"den": "757"}], ["2,1,0,1,2", {"num": "-785213", "den": "11078695"}], '
    '["2,1,0,2,1", {"num": "4818852181", "den": "148758394140"}], '
    '["2,1,1,0,2", {"num": "323", "den": "757"}], ["2,1,1,1,1", {"num": '
    '"13296891695", "den": "38912808318"}], ["2,1,2,0,1", {"num": "19", '
    '"den": "30"}]]}}\n'
)

# The four other queries of the specialized benchmark, each at the point
# q=11/13,t=17/19.
PIERI_00000_R5 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "0,0,0,0,0", "r": 5, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["1,1,1,1,1", '
    '{"num": "1", "den": "1"}]]}}\n'
)

PIERI_21010_R1 = (
    '{"schema": "1", "kind": "pieri", "n": 5, "eta": "2,1,0,1,0", "r": 1, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,1,0,1,3", '
    '{"num": "137011196278077102867600", "den": '
    '"8119829456880762011443957"}], ["0,1,1,0,3", {"num": '
    '"-23552077103818565874", "den": "10726326891520161177601"}], '
    '["0,1,1,3,0", {"num": "-4999084559183", "den": "351105592259170"}], '
    '["0,1,3,1,0", {"num": "189965213248954", "den": "7667531295654289"}], '
    '["1,0,0,1,3", {"num": "509906625036666", "den": '
    '"37989604679032549"}], ["1,0,1,0,3", {"num": "-78887159789581", '
    '"den": "45165976500831300"}], ["1,0,1,3,0", {"num": "-100465937", '
    '"den": "8870526000"}], ["1,0,3,1,0", {"num": "1908852803", "den": '
    '"96858377100"}], ["1,1,0,0,3", {"num": "32450497651", "den": '
    '"1988814465030"}], ["1,1,0,3,0", {"num": "41327", "den": "390600"}], '
    '["1,3,0,1,0", {"num": "2431", "den": "17310"}], ["2,0,0,1,2", {"num": '
    '"34958633281", "den": "808999060505"}], ["2,0,1,0,2", {"num": '
    '"-32450497651", "den": "5770931211000"}], ["2,0,1,2,0", {"num": '
    '"-41327", "den": "810000"}], ["2,0,2,1,0", {"num": "785213", "den": '
    '"11718000"}], ["2,1,0,0,2", {"num": "13348621", "den": "254114100"}], '
    '["2,1,0,1,1", {"num": "16121824582287513600", "den": '
    '"34582799466207273493"}], ["2,1,0,2,0", {"num": "12869", "den": '
    '"27000"}], ["2,1,1,0,1", {"num": "-2771324285393664", "den": '
    '"45684015146905249"}], ["2,1,1,1,0", {"num": "34199806072320", "den": '
    '"60348765055357"}], ["2,2,0,1,0", {"num": "757", "den": "900"}], '
    '["3,1,0,1,0", {"num": "1", "den": "1"}]]}}\n'
)

PIERI_1021_R2 = (
    '{"schema": "1", "kind": "pieri", "n": 4, "eta": "1,0,2,1", "r": 2, '
    '"params": "q=11/13,t=17/19", "payload": {"entries": [["0,1,2,3", '
    '{"num": "100465937", "den": "15472323000"}], ["0,1,3,2", {"num": '
    '"-41327", "den": "681300"}], ["0,2,1,3", {"num": "616559455369", '
    '"den": "97143495699600"}], ["0,2,2,2", {"num": "7860249102420", '
    '"den": "122482457760457"}], ["0,2,3,1", {"num": "785213", "den": '
    '"9856140"}], ["1,0,2,3", {"num": "-41327", "den": "681300"}], '
    '["1,0,3,2", {"num": "17", "den": "30"}], ["1,1,1,3", {"num": '
    '"7860249102420", "den": "122482457760457"}], ["1,1,2,2", {"num": '
    '"197737710", "den": "433798093"}], ["1,1,3,1", {"num": "333678", '
    '"den": "573049"}], ["1,2,1,2", {"num": "2538860460081660", "den": '
    '"92719220524665949"}], ["1,2,2,1", {"num": "-6688917863628", "den": '
    '"122482457760457"}], ["2,0,1,3", {"num": "785213", "den": '
    '"9856140"}], ["2,0,2,2", {"num": "333678", "den": "573049"}], '
    '["2,0,3,1", {"num": "1", "den": "1"}], ["2,1,1,2", {"num": '
    '"-6688917863628", "den": "122482457760457"}], ["2,1,2,1", {"num": '
    '"268948674619", "den": "808999060505"}], ["2,2,1,1", {"num": '
    '"17225459394", "den": "161799812101"}]]}}\n'
)

BINOM_01010_12011 = (
    '{"schema": "1", "kind": "binom", "n": 5, "eta": "0,1,0,1,0", "nu": '
    '"1,2,0,1,1", "params": "q=11/13,t=17/19", "payload": {"num": '
    '"-11710456064315160503548978885", "den": '
    '"572299062560631840143980512"}}\n'
)


@pytest.mark.parametrize("argv, expected", [
    (["pieri", "--eta", "0,1,2", "--r", "2"], PIERI_012_R2),
    (["pieri", "--eta", "1,0,1,0", "--r", "1", "--params", "q=-2/3,t=5/7"],
     PIERI_1010_R1_NEG_Q),
    (["pieri", "--eta", "0,0,1,0,0", "--r", "4", "--params",
      "q=11/13,t=17/19"], PIERI_00100_R4),
    (["pieri", "--eta", "0,0,0,1", "--r", "3"], PIERI_0001_R3),
    (["pieri", "--eta", "1,0,2,0,1", "--r", "2", "--params",
      "q=11/13,t=17/19"], PIERI_10201_R2),
    (["pieri", "--eta", "0,1,0,1,0", "--r", "3", "--params",
      "q=11/13,t=17/19"], PIERI_01010_R3),
    (["pieri", "--eta", "1,0,1,0,1", "--r", "3", "--params",
      "q=11/13,t=17/19"], PIERI_10101_R3),
    (["pieri", "--eta", "0,0,0,0,0", "--r", "5", "--params",
      "q=11/13,t=17/19"], PIERI_00000_R5),
    (["pieri", "--eta", "2,1,0,1,0", "--r", "1", "--params",
      "q=11/13,t=17/19"], PIERI_21010_R1),
    (["pieri", "--eta", "1,0,2,1", "--r", "2", "--params",
      "q=11/13,t=17/19"], PIERI_1021_R2),
])
def test_pieri_golden_stdout(argv, expected, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


def test_binom_golden_stdout(capsys):
    code, out, _ = run_cli(["binom", "--eta", "0,1,0,1,0", "--nu", "1,2,0,1,1",
                            "--params", "q=11/13,t=17/19"], capsys)
    assert code == 0
    assert out == BINOM_01010_12011


# Python refuses str() of an int past 4300 digits; the binomial at
# (0) -> (50) at this point has a numerator of more than that
def test_exact_values_past_4300_digits_are_printed(capsys):
    code, out, err = run_cli(["binom", "--eta", "0", "--nu", "50", "--params",
                              "q=97/89,t=83/79"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert len(payload["num"]) > 4300
    want = istar.binomial_direct((0,), (50,), specialized(Fraction(97, 89),
                                                          Fraction(83, 79)))
    # Decimal reads digits past the limit that int() refuses
    assert Fraction(int(Decimal(payload["num"])),
                    int(Decimal(payload["den"]))) == want


# inputs of more than 4300 digits stay refused, as int() refuses them
@pytest.mark.parametrize("argv, message", [
    (["binom", "--eta", "1" * 4301, "--nu", "50"],
     "error: cannot parse composition"),
    (["binom", "--eta", "0", "--nu", "2", "--params", f"q={'1' * 4301},t=2"],
     "error: cannot parse --params"),
])
def test_inputs_past_4300_digits_are_refused(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(message)


def test_estar_golden_payload(capsys):
    code, out, _ = run_cli(["estar", "--eta", "0,1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == "z2 - 1/t"


def test_e_trivial_payload(capsys):
    code, out, _ = run_cli(["e", "--eta", "0,0"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == "1"


def test_binom_norm_psi_innerprod(capsys):
    code, out, _ = run_cli(["binom", "--eta", "0,1", "--nu", "1,1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == {"num": "t", "den": "q*t - 1"}

    code, out, _ = run_cli(["norm", "--eta", "1,0"], capsys)
    assert code == 0
    doc = json.loads(out)
    # (1-q)(1-qt^2) over (1-qt)^2 in canonical expanded form
    assert doc["payload"] == {"num": "q^2*t^2 - q*t^2 - q + 1",
                              "den": "q^2*t^2 - 2*q*t + 1"}

    code, out, _ = run_cli(["psi", "--eta", "1,0", "--lam", "1,1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == {
        "num": "q*t + q - t - 1", "den": "q*t - 1"}

    code, out, _ = run_cli(
        ["innerprod", "--eta", "0,0", "--nu", "0,0", "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out)["payload"] == {"num": "q + 1", "den": "1"}


def test_specialized_params(capsys):
    code, out, _ = run_cli(
        ["e", "--eta", "1,0", "--params", "q=1/2,t=1/3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == "q=1/2,t=2/3" or doc["params"] == "q=1/2,t=1/3"
    assert "z1" in doc["payload"]


def test_text_format(capsys):
    code, out, _ = run_cli(
        ["pieri", "--eta", "0,0", "--r", "1", "--format", "text"], capsys)
    assert code == 0
    assert "0,1: (q*t - t) / (q*t - 1)" in out


def test_output_determinism(capsys):
    a = run_cli(["pieri", "--eta", "1,0,1", "--r", "2"], capsys)
    b = run_cli(["pieri", "--eta", "1,0,1", "--r", "2"], capsys)
    assert a == b
    assert a[0] == 0


# ---------------------------------------------------------------------------
# usage errors -> exit 1 with a diagnostic on stderr
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["pieri", "--eta", "0,0", "--r", "7"],
    ["pieri", "--eta", "0,x", "--r", "1"],
    ["pieri", "--eta", "0,-1", "--r", "1"],
    ["binom", "--eta", "0,0"],
    ["binom", "--eta", "0,0", "--nu", "0,0,0"],
    ["e", "--eta", "0,0", "--params", "totally-broken"],
    ["e", "--eta", "0,0", "--params", "q=0,t=2"],
    ["e", "--eta", "0,0", "--params", "q=1/2,t=2", "--symbolic"],
    ["verify", "--suite", "no-such-suite", "--max-n", "2", "--max-mod", "1"],
    ["verify", "--suite", "eigen", "--max-n", "2", "--max-mod", "1", "--k", "7"],
    ["psi", "--eta", "1,0", "--lam", "3,0"],
    ["pieri", "--eta", "0,0", "--r", "1", "--params", "q=2,t=3,x=5"],
    ["pieri", "--eta", "0,0", "--r", "1", "--params", "q=2,t=3,t=5"],
])
def test_usage_errors_exit_one(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.strip()


# argparse's own help and messages, recorded with COLUMNS=80, the width
# argparse wraps help to
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SUBCOMMANDS = "'e', 'estar', 'pieri', 'binom', 'norm', 'psi', 'innerprod', " \
    "'verify'"
SUITES = "'binomials', 'duality', 'eigen', 'norms', 'oracle-e', " \
    "'oracle-estar', 'pieri-agreement', 'pieri-general', 'symmetric-pieri', " \
    "'vanishing', 'all'"


@pytest.mark.parametrize("argv, golden", [
    (["--help"], "help_qtmac.txt"),
    (["pieri", "--help"], "help_pieri.txt"),
    (["verify", "--help"], "help_verify.txt"),
])
def test_help_golden_stdout(argv, golden, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == ((GOLDEN / golden).read_text(), "")


@pytest.mark.parametrize("argv, message", [
    (["foo"],
     f"argument command: invalid choice: 'foo' (choose from {SUBCOMMANDS})"),
    (["pieri", "--r", "1"], "the following arguments are required: --eta"),
    (["pieri", "--eta", "0,0", "--r", "x"],
     "argument --r: invalid int value: 'x'"),
    (["pieri", "--eta", "0,0", "--r", "1", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["pieri", "--eta", "-1,0", "--r", "1"],
     "argument --eta: expected one argument"),
    (["e", "--eta", "0,0", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    (["verify", "--suite", "nope", "--max-n", "2"],
     f"argument --suite: invalid choice: 'nope' (choose from {SUITES})"),
])
def test_usage_error_golden_stderr(argv, message, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


def test_abbreviated_option_is_read_by_argparse(capsys):
    argv = ["pieri", "--et", "0,0", "--r", "1"]
    assert cli._plain_args(argv) is None
    assert run_cli(argv, capsys) == run_cli(
        ["pieri", "--eta", "0,0", "--r", "1"], capsys)


# tokens that a command line is drawn from: every option and some that
# only argparse reads, and values of every kind argparse tells apart
FLAGS = sorted({flag for _, options, _ in cli.COMMANDS.values()
                for flag, _ in options}) + [
    "--et", "--max", "--eta=1,0", "-h", "--"]
VALUES = ["0,1", "1,0,1", "1", "0", "-1", "", " 2", "+2", "\u0663", "-",
          "xml", "json", "text", "q=1/2,t=1/3", "pieri",
          *sorted(verify.SUITES), "all"]
INTS = ["1", "0", "3", " 2", "+2", "\u0663", "-1", "x"]


def _values(spec):
    """A value of the option's kind, or any value."""
    own = spec.get("choices") or (INTS if spec.get("type") is int else VALUES)
    return st.sampled_from(list(own)) | st.sampled_from(VALUES)


@st.composite
def command_lines(draw):
    """Mostly a subcommand's own options in any order, each with a value
    of its kind or any value, its required options mostly given, and at
    times one token more anywhere: about a third of them are plain."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[command][1]
    chosen = draw(st.permutations(options))[
        :draw(st.integers(0, len(options)))]
    if draw(st.integers(0, 4)):
        chosen += [option for option in options
                   if option[1].get("required") and option not in chosen]
    argv = [command]
    for flag, spec in chosen:
        argv.append(flag)
        if "action" not in spec:
            argv.append(draw(_values(spec)))
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(FLAGS + VALUES)))
    return argv


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_plain_args_is_what_argparse_reads(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(cli.build_parser().parse_args(argv))


def _benchmark_queries():
    """The distinct command lines of perfbench's workloads at seeds 1-3."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return sorted({tuple(query["argv"]) for name in workloads.WORKLOADS
                   for seed in (1, 2, 3)
                   for query in workloads.build(name, seed)})


@pytest.mark.parametrize("argv", _benchmark_queries(), ids=" ".join)
def test_plain_args_reads_every_benchmark_command_line(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser().parse_args(argv))


class _ParserBuilt(Exception):
    pass


@pytest.fixture
def no_parser(monkeypatch):
    def build_parser():
        raise _ParserBuilt

    monkeypatch.setattr(cli, "build_parser", build_parser)


@pytest.mark.parametrize("argv", [
    ["pieri", "--eta", "0,0", "--r", "1"],
    ["e", "--eta", "0,1", "--params", "q=1/2,t=1/3"],
])
def test_plain_command_line_builds_no_parser(argv, no_parser, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == argv[0]


def test_other_command_lines_build_the_parser(no_parser):
    with pytest.raises(_ParserBuilt):
        cli.main(["pieri", "--eta=0,0", "--r", "1"])


def test_verify_fault_is_not_a_usage_error(monkeypatch):
    # argparse's choices reject unknown suite names; a KeyError raised inside
    # a suite is a fault of the suite and surfaces as itself
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setitem(verify.SUITES, "eigen", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["verify", "--suite", "eigen", "--max-n", "2", "--max-mod", "1"])


def test_degenerate_point_is_a_clean_failure(capsys):
    # q = t = 1 collapses Hecke denominators; must exit 1, not crash
    code, _, err = run_cli(
        ["e", "--eta", "1,0", "--params", "q=1,t=1"], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, factor", [
    (["pieri", "--eta", "0,0", "--r", "1", "--params", "q=1,t=5"], "1 - q^-1"),
    (["pieri", "--eta", "1,0,2", "--r", "2", "--params", "q=1,t=5"],
     "1 - q^-1"),
    (["pieri", "--eta", "0,0", "--r", "1", "--params", "q=1,t=1"],
     "1 - q^-1*t^-1"),
    (["e", "--eta", "2,0,1", "--params", "q=2,t=1/2"], "1 - q*t"),
    (["binom", "--eta", "0,1", "--nu", "1,2", "--params", "q=1,t=5"],
     "1 - q^-1"),
    (["norm", "--eta", "1,0", "--params", "q=2,t=1/2"], "1 - q*t"),
    (["psi", "--eta", "1,0", "--lam", "1,1", "--params", "q=1,t=1"],
     "1 - q*t"),
    (["verify", "--suite", "pieri-agreement", "--max-n", "2", "--max-mod", "2",
      "--params", "q=1,t=5"], "1 - q"),
    (["verify", "--suite", "binomials", "--max-n", "2", "--max-mod", "2",
      "--params", "q=2,t=1/2"], "1 - q*t"),
    (["psi", "--eta", "0,0", "--lam", "0,0", "--params", "q=1,t=1"], "1 - t"),
    (["psi", "--eta", "0,0", "--lam", "1,1", "--params", "q=1,t=1"], "1 - t"),
    (["psi", "--eta", "1,0", "--lam", "2,0", "--params", "q=-5,t=-1"],
     "P_2,0(t^delta)"),
    (["verify", "--suite", "symmetric-pieri", "--max-n", "2", "--max-mod", "1",
      "--params", "q=-1,t=1"], "1 - t"),
    # the coefficient of z^kappa in the Hecke symmetrization of E_kappa
    (["psi", "--eta", "0,0", "--lam", "1,0", "--params", "q=2,t=-1"], "t + 1"),
    (["psi", "--eta", "1,0", "--lam", "2,0", "--params", "q=1/4,t=2"],
     "(q*t^2 - 1)/(q*t - 1)"),
    (["verify", "--suite", "symmetric-pieri", "--max-n", "2", "--max-mod", "1",
      "--params", "q=2,t=-1"], "t + 1"),
    # a factor of E_eta(z; 1/q, 1/t), named at the point given
    (["verify", "--suite", "oracle-e", "--max-n", "2", "--max-mod", "2",
      "--params", "q=2,t=1/2"], "1 - q^-1*t^-1"),
    (["verify", "--suite", "pieri-agreement", "--max-n", "2", "--max-mod", "2",
      "--params", "q=2,t=1/2"], "1 - q^-1*t^-1"),
    # a hook factor of d' with leg 2, in a principal value
    (["pieri", "--eta", "0,1,1", "--r", "1", "--params", "q=4,t=1/2"],
     "1 - q^-1*t^-2"),
    # a factor of d' of a principal value taken at the reciprocal point by
    # the duality check, named at the point given
    (["verify", "--suite", "duality", "--max-n", "2", "--max-mod", "2",
      "--params", "q=2,t=1/4"], "1 - q^2*t"),
])
def test_degenerate_point_names_the_vanishing_factor(argv, factor, capsys):
    # a principal value, a Hecke coefficient or a norm denominator vanishes
    # there: no table with dropped entries, no bare Fraction(x, 0)
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert f"error: specialization failed: factor {factor} vanishes" in err


def test_pieri_answers_where_only_a_label_above_the_ceiling_degenerates(
        capsys):
    # at q = -1 the principal value of (2,0) vanishes, but (2,0) lies above
    # the ceiling (1,1) of eta = (0,0), so its value is never needed
    code, out, err = run_cli(
        ["pieri", "--eta", "0,0", "--r", "2", "--params", "q=-1,t=1/2"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["payload"]["entries"] == [
        ["1,1", {"num": "1", "den": "1"}]]


@pytest.mark.parametrize("params, pair", [
    ("q=1,t=5", "0 and 1"),
    ("q=-1,t=1/2", "0 and 2"),
])
def test_vanishing_suite_rejects_coincident_spectral_points(params, pair,
                                                            capsys):
    # the extra-vanishing theorem needs distinct spectral points: where two
    # labels share one, the run names them instead of reporting [FAIL]
    code, out, err = run_cli(
        ["verify", "--suite", "vanishing", "--max-n", "2", "--max-mod", "2",
         "--params", params], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"error: specialization failed: {pair} share their "
                   f"spectral point at {params}\n")


def test_oracle_estar_suite_names_coincident_spectral_points(capsys):
    # the vanishing system is singular where two labels share a spectral
    # point: the run names them, not an implementation bug
    code, out, err = run_cli(
        ["verify", "--suite", "oracle-estar", "--max-n", "2", "--max-mod",
         "2", "--params", "q=1,t=5"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: specialization failed: 0 and 1 share their "
                   "spectral point at q=1,t=5\n")


@pytest.mark.parametrize("params", ["q=2,t=1", "q=4,t=1/2", "q=2,t=-1/2"])
def test_vanishing_suite_accepts_zeros_of_generically_nonzero_values(params,
                                                                     capsys):
    # the spectral points are distinct, but some successor's value, nonzero
    # over Q(q,t), vanishes at the point: "only if" needs generic (q, t)
    code, out, err = run_cli(
        ["verify", "--suite", "vanishing", "--max-n", "2", "--max-mod", "2",
         "--params", params], capsys)
    assert (code, out, err) == (0, "[pass] vanishing: 9 checks\n", "")


def _vanishing_at_q2_t1(monkeypatch, capsys, spectral_evaluate):
    monkeypatch.setattr(istar, "spectral_evaluate", spectral_evaluate)
    code, out, _ = run_cli(
        ["verify", "--suite", "vanishing", "--max-n", "2", "--max-mod", "2",
         "--params", "q=2,t=1"], capsys)
    assert code == 2
    return out


# Estar_(1,0) vanishes at (0,2)-bar at q=2,t=1, though (0,2) is a successor
ZERO_AT_A_SUCCESSOR = ((1, 0), (0, 2))


def test_vanishing_suite_still_fails_a_disagreement_at_a_zero(monkeypatch,
                                                              capsys):
    # a fast path that is off by one there fails, though the zero is explained
    real = istar.spectral_evaluate

    def off_by_one(eta, mu, ctx=GENERIC):
        value = real(eta, mu, ctx)
        if (eta, mu) == ZERO_AT_A_SUCCESSOR and ctx != GENERIC:
            return value + ctx.one
        return value

    assert _vanishing_at_q2_t1(monkeypatch, capsys, off_by_one) == (
        "[FAIL] vanishing: 9 checks, 1 failures\n"
        "    counterexample: spectral_evaluate disagrees with at_point "
        "eta=1,0 lam=0,2\n")


@pytest.mark.parametrize("generic_value", [0, 1])
def test_vanishing_suite_still_fails_an_unexplained_zero(generic_value,
                                                         monkeypatch, capsys):
    # the same zero fails where the generic value is 0, or is nonzero at
    # q=2,t=1: then nothing explains it
    real = istar.spectral_evaluate

    def generic_says(eta, mu, ctx=GENERIC):
        if (eta, mu) == ZERO_AT_A_SUCCESSOR and ctx == GENERIC:
            return ctx.from_int(generic_value)
        return real(eta, mu, ctx)

    assert _vanishing_at_q2_t1(monkeypatch, capsys, generic_says) == (
        "[FAIL] vanishing: 9 checks, 1 failures\n"
        "    counterexample: vanishing mismatch eta=1,0 lam=0,2: value 0 vs "
        "successor says !=0\n")


def test_binomials_suite_names_coincident_spectral_points(capsys):
    # the binomial recursion needs a position where the spectral points
    # differ; where none does, the run says so as the vanishing suite does
    code, out, err = run_cli(
        ["verify", "--suite", "binomials", "--max-n", "2", "--max-mod", "2",
         "--params", "q=-1,t=1/2"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: specialization failed: 0 and 2 share their "
                   "spectral point at q=-1,t=1/2\n")


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_small_suites(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "pieri-agreement", "--max-n", "2",
         "--max-mod", "2"], capsys)
    assert code == 0
    assert "[pass] pieri-agreement" in out

    code, out, _ = run_cli(
        ["verify", "--suite", "norms", "--max-n", "2", "--max-mod", "1",
         "--k", "1"], capsys)
    assert code == 0
    assert "[pass] norms" in out


def test_verify_failure_exits_two(monkeypatch, capsys):
    # a broken fast path: every check fails, the report shows the first five
    monkeypatch.setattr(pieri, "pieri_r1_closed", lambda eta, ctx: {})
    code, out, _ = run_cli(
        ["verify", "--suite", "pieri-agreement", "--max-n", "2",
         "--max-mod", "2"], capsys)
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "[FAIL] pieri-agreement: 6 checks, 6 failures"
    assert lines[1:] == [
        f"    counterexample: r=1 closed disagrees with oracle at eta={eta}"
        for eta in ("0,0", "0,1", "1,0", "0,2", "1,1")]


# symbolically and at a rational point: the suites compare forms over a
# common denominator, so one wrong coefficient must still fail exactly once
CONTROL_POINTS = pytest.mark.parametrize("params", [
    [], ["--params", "q=-2/3,t=5/7"]], ids=["symbolic", "q=-2/3,t=5/7"])


def _verify(suite, max_n, max_mod, params, capsys):
    code, out, _ = run_cli(["verify", "--suite", suite, "--max-n", str(max_n),
                            "--max-mod", str(max_mod), *params], capsys)
    assert code == 2
    return out


@CONTROL_POINTS
def test_eigen_suite_fails_a_perturbed_Estar(params, monkeypatch, capsys):
    # Estar_(1,0) + 1 is no eigenfunction of Xi_1 (it is one of Xi_2, since
    # Xi_2 1 = t 1 and eta-bar_2 = 1/t)
    real = istar.generate_Estar

    def perturbed(eta, ctx=GENERIC):
        p = real(eta, ctx)
        if eta == (1, 0):
            return p + ZPolynomial.constant(2, ctx.one)
        return p

    monkeypatch.setattr(istar, "generate_Estar", perturbed)
    assert _verify("eigen", 2, 3, params, capsys) == (
        "[FAIL] eigen: 24 checks, 1 failures\n"
        "    counterexample: eigenrelation fails at eta=1,0 i=1\n")


@CONTROL_POINTS
@pytest.mark.parametrize("pruned, failures", [
    (False, ["interpolation residual nonzero eta=0,1 r=1"]),
    (True, ["general-r mismatch eta=0,1 r=1",
            "homogeneous residual nonzero eta=0,1 r=1"]),
], ids=["full", "pruned"])
def test_pieri_general_suite_fails_a_perturbed_coefficient(
        params, pruned, failures, monkeypatch, capsys):
    # one coefficient of the full expansion (checked by the interpolation
    # residual) or of the pruned table (checked by the oracle and the
    # homogeneous residual) moves by one
    real = pieri.interpolation_expansion

    def perturbed(eta, r, ctx=GENERIC, ceiling=None):
        table = real(eta, r, ctx, ceiling)
        if (eta, r, ceiling is not None) == ((0, 1), 1, pruned):
            layer = dict(table.layers[0])
            layer[max(layer)] += ctx.one
            return pieri.ExpansionTable(eta, r, (layer,))
        return table

    monkeypatch.setattr(pieri, "interpolation_expansion", perturbed)
    assert _verify("pieri-general", 2, 2, params, capsys) == "".join(
        [f"[FAIL] pieri-general: 6 checks, {len(failures)} failures\n"]
        + [f"    counterexample: {line}\n" for line in failures])


@CONTROL_POINTS
def test_symmetric_pieri_suite_fails_a_perturbed_psi(params, monkeypatch,
                                                     capsys):
    real = emac.psi_coefficient

    def perturbed(kappa, lam, n=None, ctx=GENERIC):
        value = real(kappa, lam, n, ctx)
        return value + ctx.one if (kappa, lam) == ((1, 0), (1, 1)) else value

    monkeypatch.setattr(emac, "psi_coefficient", perturbed)
    assert _verify("symmetric-pieri", 3, 1, params, capsys) == (
        "[FAIL] symmetric-pieri: 12 checks, 1 failures\n"
        "    counterexample: psi mismatch kappa=1,0 r=1 lam=1,1\n")


@CONTROL_POINTS
@pytest.mark.parametrize("change, failure", [
    ({(0, 2): 1}, "non-vertical-strip term kappa=1,0 r=1 lam=0,2"),
    ({(1, 1): None}, "missing vertical strip kappa=1,0 r=1 lam=1,1"),
], ids=["extra", "missing"])
def test_symmetric_pieri_suite_fails_a_perturbed_table(params, change, failure,
                                                       monkeypatch, capsys):
    # e_1 P_(1,0) gains a term off the vertical strips, or loses one on them
    real = emac.symmetric_pieri_table

    def perturbed(kappa, r, n, ctx=GENERIC):
        table = real(kappa, r, n, ctx)
        if (kappa, r, n) == ((1, 0), 1, 2):
            table = dict(table)
            for lam, value in change.items():
                if value is None:
                    del table[lam]
                else:
                    table[lam] = ctx.from_int(value)
        return table

    monkeypatch.setattr(emac, "symmetric_pieri_table", perturbed)
    assert _verify("symmetric-pieri", 2, 1, params, capsys) == (
        "[FAIL] symmetric-pieri: 6 checks, 1 failures\n"
        f"    counterexample: {failure}\n")


@CONTROL_POINTS
def test_oracle_estar_suite_fails_a_perturbed_solve(params, monkeypatch,
                                                    capsys):
    real = istar.vanishing_solve_oracle

    def perturbed(eta, ctx=GENERIC):
        p = real(eta, ctx)
        return p + ZPolynomial.constant(2, ctx.one) if eta == (1, 0) else p

    monkeypatch.setattr(istar, "vanishing_solve_oracle", perturbed)
    assert _verify("oracle-estar", 2, 2, params, capsys) == (
        "[FAIL] oracle-estar: 9 checks, 1 failures\n"
        "    counterexample: Estar mismatch at eta=1,0\n")


@CONTROL_POINTS
def test_oracle_e_suite_fails_a_perturbed_E(params, monkeypatch, capsys):
    real = emac.generate_E

    def perturbed(eta, ctx=GENERIC):
        p = real(eta, ctx)
        return p + ZPolynomial.constant(2, ctx.one) if eta == (1, 0) else p

    monkeypatch.setattr(emac, "generate_E", perturbed)
    assert _verify("oracle-e", 2, 2, params, capsys) == (
        "[FAIL] oracle-e: 9 checks, 1 failures\n"
        "    counterexample: top-degree bridge fails at eta=1,0\n")


@CONTROL_POINTS
def test_duality_suite_fails_a_perturbed_transfer(params, monkeypatch, capsys):
    real = pieri.duality_transfer

    def perturbed(eta, lam, r, ctx=GENERIC):
        value = real(eta, lam, r, ctx)
        return value + ctx.one if (eta, lam, r) == ((0, 1), (1, 1), 1) \
            else value

    monkeypatch.setattr(pieri, "duality_transfer", perturbed)
    assert _verify("duality", 2, 2, params, capsys) == (
        "[FAIL] duality: 6 checks, 1 failures\n"
        "    counterexample: duality mismatch eta=0,1 lam=1,1 r=1\n")


@CONTROL_POINTS
def test_binomials_suite_fails_a_perturbed_direct_value(params, monkeypatch,
                                                        capsys):
    real = istar.binomial_direct

    def perturbed(eta, nu, ctx=GENERIC):
        value = real(eta, nu, ctx)
        return value + ctx.one if (eta, nu) == ((0, 1), (1, 1)) else value

    monkeypatch.setattr(istar, "binomial_direct", perturbed)
    assert _verify("binomials", 2, 1, params, capsys) == (
        "[FAIL] binomials: 5 checks, 1 failures\n"
        "    counterexample: binomial mismatch eta=0,1 nu=1,1\n")


@CONTROL_POINTS
def test_pieri_general_suite_fails_a_table_without_its_unity_term(
        params, monkeypatch, capsys):
    # the table loses its coefficient 1 at eta + chi_r, so it also differs
    # from the oracle and leaves a homogeneous residual
    real = pieri.pieri_homogeneous

    def perturbed(eta, r, ctx=GENERIC):
        table = real(eta, r, ctx)
        if (eta, r) == ((0, 1), 1):
            table = dict(table)
            del table[comb.chi_r(eta, r)]
        return table

    monkeypatch.setattr(pieri, "pieri_homogeneous", perturbed)
    assert _verify("pieri-general", 2, 1, params, capsys) == (
        "[FAIL] pieri-general: 3 checks, 3 failures\n"
        "    counterexample: general-r mismatch eta=0,1 r=1\n"
        "    counterexample: unity coefficient fails eta=0,1 r=1\n"
        "    counterexample: homogeneous residual nonzero eta=0,1 r=1\n")


def test_norms_suite_fails_a_perturbed_norm(monkeypatch, capsys):
    real = emac.norm_N

    def perturbed(eta, ctx=GENERIC):
        value = real(eta, ctx)
        return value * 2 if eta == (0, 1) else value

    monkeypatch.setattr(emac, "norm_N", perturbed)
    assert _verify("norms", 2, 1, ["--k", "1"], capsys) == (
        "[FAIL] norms: 6 checks, 1 failures\n"
        "    counterexample: norm mismatch n=2 k=1 eta=0,1 nu=0,1: "
        "q + 1 != 2*q + 2\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "norms", "--max-n", "1"],
    ["verify", "--suite", "eigen", "--max-n", "0"],
])
def test_verify_checking_nothing_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert "[pass]" not in out
    assert f"error: suite {argv[2]} checks nothing at these bounds" in err


def test_run_verify_script_checking_nothing_fails():
    # the battery script reports through the CLI's rule: a suite that checks
    # nothing prints no [pass] line and makes the run exit 1
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "run_verify.py")
    proc = subprocess.run(
        [sys.executable, script, "--max-n", "1", "--max-mod", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "[pass] norms" not in proc.stdout
    assert "error: suite norms checks nothing at these bounds" in proc.stderr
    assert "[pass] eigen: 2 checks (" in proc.stdout


def test_pieri_tables_script_runs_outside_the_repo(tmp_path):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "scripts", "pieri_tables.py")
    proc = subprocess.run(
        [sys.executable, script, "--n", "2", "--max-mod", "1", "--r", "1"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("e_1 * E_0,0:\n")


@pytest.mark.parametrize("argv, message", [
    (["--n", "0"], "compositions must have length >= 1"),
    (["--n", "2", "--r", "3"], "r=3 out of range for n=2"),
], ids=["no-parts", "r-above-n"])
def test_pieri_tables_script_reports_bad_ranges_as_usage_errors(argv, message):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "scripts", "pieri_tables.py")
    proc = subprocess.run([sys.executable, script, *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"error: {message}\n")


@pytest.mark.parametrize("suite", ["norms", "all"])
def test_verify_params_rejected_for_symbolic_suites(suite, capsys):
    code, out, err = run_cli(
        ["verify", "--suite", suite, "--max-n", "2", "--max-mod", "1",
         "--params", "q=2/3,t=3/5"], capsys)
    assert code == 1
    assert out == ""
    assert "norms suite runs symbolically" in err


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    doc = cli.result_document("e", 2, {"eta": "0,1"}, "symbolic", "z2")
    cli.cache_store(doc, str(tmp_path))
    again = cli.cache_load("e", 2, {"eta": "0,1"}, "symbolic", str(tmp_path))
    assert again == doc
    assert list(again) == list(doc)


def test_cache_transparency(tmp_path, capsys):
    argv = ["pieri", "--eta", "0,1", "--r", "1"]
    plain = run_cli(argv, capsys)
    cached1 = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    cached2 = run_cli(argv + ["--cache-dir", str(tmp_path)], capsys)
    assert plain == cached1 == cached2
    entries = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    assert len(entries) == 1


def test_cache_serves_psi_entry(tmp_path, capsys):
    # psi stores under n = max(len(eta), len(lam)); the lookup must agree
    argv = ["psi", "--eta", "1", "--lam", "1,1", "--cache-dir", str(tmp_path)]
    first = run_cli(argv, capsys)
    assert first[0] == 0
    (path,) = [os.path.join(tmp_path, p) for p in os.listdir(tmp_path)
               if p.endswith(".json")]
    with open(path) as fh:
        doc = json.load(fh)
    doc["payload"] = 999
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["payload"] == 999


def test_cache_ignores_corruption(tmp_path, capsys):
    argv = ["e", "--eta", "0,1", "--cache-dir", str(tmp_path)]
    first = run_cli(argv, capsys)
    (path,) = [os.path.join(tmp_path, p) for p in os.listdir(tmp_path)
               if p.endswith(".json")]
    with open(path, "w") as fh:
        fh.write("{this is not json")
    second = run_cli(argv, capsys)
    assert first == second
    with open(path) as fh:
        json.load(fh)  # recomputed file is valid again


# each entry, if served, would print another document than the query's
@pytest.mark.parametrize("mismatch", [
    lambda doc: [doc],
    lambda doc: {**doc, "params": "q=1/2,t=1/3", "payload": "z1"},
    lambda doc: {**doc, "eta": "1,0", "payload": "z1"},
    lambda doc: {key: value for key, value in doc.items() if key != "payload"},
], ids=["list", "params", "inputs", "no-payload"])
def test_cache_rewrites_another_querys_document(mismatch, tmp_path, capsys):
    argv = ["e", "--eta", "0,1", "--cache-dir", str(tmp_path)]
    first = run_cli(argv, capsys)
    (path,) = [os.path.join(tmp_path, p) for p in os.listdir(tmp_path)
               if p.endswith(".json")]
    with open(path) as fh:
        stored = fh.read()
    with open(path, "w") as fh:
        json.dump(mismatch(json.loads(stored)), fh)
    assert run_cli(argv, capsys) == first
    with open(path) as fh:
        assert fh.read() == stored


def test_cache_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    # a file where the cache directory should be: one error line, no
    # document, no traceback, and the file left as it was
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    code, out, err = run_cli(["e", "--eta", "1,0", "--cache-dir", str(cache)],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot store in --cache-dir {cache}: " \
        "not a directory\n"
    assert cache.read_text() == "not a directory\n"


def test_cache_dir_is_checked_before_computing(tmp_path, capsys,
                                              monkeypatch):
    def compute_document(*args):
        pytest.fail("computed a result that --cache-dir cannot hold")

    monkeypatch.setattr(cli, "compute_document", compute_document)
    cache = tmp_path / "cache"
    cache.write_text("not a directory\n")
    code, out, err = run_cli(["e", "--eta", "1,0", "--cache-dir", str(cache)],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot store in --cache-dir {cache}: " \
        "not a directory\n"


def test_cache_concurrent_duplicate_store(tmp_path):
    doc = cli.result_document("e", 2, {"eta": "2,1"}, "symbolic", "x")
    errors = []

    def store():
        try:
            for _ in range(25):
                cli.cache_store(doc, str(tmp_path))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    entries = [p for p in os.listdir(tmp_path) if p.endswith(".json")]
    assert len(entries) == 1
    loaded = cli.cache_load("e", 2, {"eta": "2,1"}, "symbolic", str(tmp_path))
    assert loaded == doc


def test_cache_key_is_deterministic_and_distinct():
    k1 = cli.cache_key("pieri", 2, {"eta": "0,0", "r": 1}, "symbolic")
    k2 = cli.cache_key("pieri", 2, {"eta": "0,0", "r": 2}, "symbolic")
    k3 = cli.cache_key("pieri", 2, {"eta": "0,0", "r": 1}, "q=1/2,t=1/3")
    assert k1 == cli.cache_key("pieri", 2, {"eta": "0,0", "r": 1}, "symbolic")
    assert len({k1, k2, k3}) == 3
