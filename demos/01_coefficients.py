"""Compute every sharp coefficient for a few spectrum pairs.

The subunitary-factor bounds are a max/min over an index k; the script
prints the full ratio table so you can see where the optimum sits and how
it moves as the second spectrum grows.
"""

from polarbounds import bounds
from polarbounds.spectra import validate_spectrum_pair

PAIRS = [
    ("identical rank-1", [1.0], [1.0]),
    ("rank gap", [1.0], [1.0, 1.0]),
    ("well separated", [8.7559, 6.1282, 5.0602], [7.3693, 5.7829, 3.2958, 2.5156]),
    ("second spectrum dominant", [2.5242, 2.4113, 1.4701],
     [9.7298, 7.0899, 6.1945, 4.3453]),
]


def show(label, sigma, sigma_tilde):
    pair = validate_spectrum_pair(sigma, sigma_tilde)
    print(f"== {label}  (r={pair.r}, s={pair.s})")
    q_up, table = bounds.q_upper_coeff(pair)
    cells = ["   --  " if v is None else f"{v:7.4f}" for v in table.values]
    print(f"   f(k) table: {' '.join(cells)}   argmax k* = {q_up.optimal_index}")
    print(f"   q upper {q_up.coefficient:.5f}   "
          f"q lower {bounds.q_lower_coeff(pair)[0].coefficient:.5f}")
    print(f"   h upper {bounds.h_upper_coeff(pair).coefficient:.5f}   "
          f"h lower {bounds.h_lower_coeff(pair).coefficient:.5f}")
    print(f"   sum-ratio upper {bounds.lee_upper_coeff(pair).coefficient:.5f}   "
          f"lower {bounds.lee_lower_coeff(pair).coefficient:.5f}")
    print(f"   am-gm {bounds.amgm_coeff(pair).coefficient:.5f}   "
          f"cauchy-schwarz {bounds.cauchy_schwarz_coeff(pair).coefficient:.5f}")
    if pair.r == pair.s:
        print(f"   classical equal-rank bound "
              f"{bounds.li_sun_coeff(pair).coefficient:.5f}, refined "
              f"{bounds.refined_li_sun_coeff(pair)[0].coefficient:.5f}")
    print()


def main():
    for label, sigma, sigma_tilde in PAIRS:
        show(label, sigma, sigma_tilde)
    print("Note how the upper constants collapse to sqrt(2) and "
          "sqrt((1+sqrt(2))/2) exactly when the spectra coincide.")


if __name__ == "__main__":
    main()
