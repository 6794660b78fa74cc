"""Exact references for the checks that pin frequently quoted decimals.

Each reference is its closed form in v_tet = 3 L(pi/3), v_oct = 8 L(pi/4) and
L(pi/n), evaluated with mpmath at 30 digits through L(theta) = Cl_2(2 theta)/2.
That route shares no code with the library's zeta series or its quadrature
oracle; ``test_reference_values.py`` re-derives every value here.

The comment beside each value keeps the decimal the check used to pin and
where that decimal comes from. "Six-place constants" are v_tet = 1.014941
and v_oct = 3.663863, the decimals acceptance criterion 1 used to pin;
1.014941 is v_tet = 1.01494160... truncated, not rounded.
"""

# v_tet = 3 L(pi/3) = 1.01494160640965362... Acceptance criterion 1 pinned
# 1.014941, the truncation; rounded to six places it is 1.014942.
V_TET_EXACT = 1.014941606409654

# v_oct = 8 L(pi/4) = 3.66386237670887606... Acceptance criterion 1 pinned
# 3.663863, a mis-rounding; rounded to six places it is 3.663862.
V_OCT_EXACT = 3.663862376708876

# (2 v_oct - 4 v_tet) / ((3/2) v_oct - 5 v_tet). Printed 7.760616 is not
# reproducible: six-place constants give 7.760730.
PRISM_CROSSOVER = 7.7607945929179

# 3 v_tet / (3 v_oct - 10 v_tet). Printed 3.615410: six-place constants give
# 3.6154107.
THRESHOLD_P3_COEFFICIENT = 3.6154469585163

# 6 (3 v_oct - 4 v_tet) / (3 v_oct - 10 v_tet). Printed 49.385163 is a digit
# slip: six-place constants give 49.384929.
THRESHOLD_RHS = 49.385363502196

# adams_crossing_expr(11) = 28 v_tet. Printed 28.418348 is 28 x 1.014941.
ADAMS_CROSSING_C11 = 28.418364979470

# two_bridge_bounds_expr(3) = (6 v_tet - 13533/5000, 4 v_oct), the t = 3
# bounds of the worked example b(55/17). Printed 3.383046 and 14.655452 are
# off by 3.6e-6 and 2.5e-6; rounded to six places they are 3.383050 and
# 14.655450, as the CLI prints them.
TWO_BRIDGE_LOWER_T3 = 3.38304963845792
TWO_BRIDGE_UPPER_T3 = 14.6554495068355

# Subtraction constant a of the Adams twist bound, by case:
# case -> (exact value, printed decimal).
ADAMS_A = {
    # 7 v_oct - 10 v_tet; digit slip: six-place constants give 15.497631
    "g2=0": (15.497620572866, "15.497263"),
    # 11 v_tet; printed is 11 x 1.014941
    "g3=0 and t2>=1": (11.164357670506, "11.164351"),
    # 32 L(pi/8) + 5 v_tet - v_oct - 14 L(pi/7)
    "g4=0 and t3>=1": (10.088228018363, "10.088228"),
    # 40 L(pi/10) + 12 L(pi/6) - 2 v_tet - 8 L(pi/4) - 18 L(pi/9)
    "g5=0 and t4>=1": (10.287338261191, "10.287338"),
    # 4 v_tet + 12 L(pi/6) + 60 L(pi/10) - 54 L(pi/9); printed is truncated
    "g5>=1": (12.111063657864, "12.111063"),
}
