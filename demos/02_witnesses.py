"""Build equality-attaining matrix pairs for each sharp bound.

Every coefficient in the library is exact: for each one there is a concrete
pair of matrices where the inequality becomes an equality. This script
constructs all six witnesses for one spectrum pair, re-derives the polar
factors from scratch, and compares the achieved ratio with the target.
"""

from polarbounds.extremal import BOUND_IDS, DegenerateSupremumError, make_witness, verify_witness
from polarbounds.spectra import validate_spectrum_pair


def main():
    pair = validate_spectrum_pair([4.0, 2.0], [1.5, 1.0, 0.5])
    print(f"spectra: {pair.sigma} vs {pair.sigma_tilde}\n")
    for bound_id in BOUND_IDS:
        w = make_witness(pair, bound_id)
        diag = verify_witness(w)
        print(f"{bound_id:9s} target {w.target_coefficient:.10f}  "
              f"achieved {diag.achieved_ratio:.10f}  "
              f"(alignment M={diag.M:+.4f}, N={diag.N:.4f})")

    print("\nThe upper bound for the positive factor is a supremum when the "
          "spectra are identical: no finite pair attains sqrt(2).")
    try:
        make_witness(validate_spectrum_pair([1.0], [1.0]), "h-upper")
    except DegenerateSupremumError as exc:
        print(f"h-upper on identical spectra -> {exc}")


if __name__ == "__main__":
    main()
