"""Exact symbolic computation in the quantized enveloping algebra U_q(n)
for small-rank types: PBW bases, the dual canonical basis, quantum flag
minors, quiver-adapted words, and multiplicativity scans.
"""

from .rootdata import CartanDatum, ReducedWord, longest_word
from .qea import WordExpr, TriExpr, UPlusExpr, pairing, canonical_form
from .pbw import (root_vector, pbw_monomial, pbw_coordinates,
                  dual_pbw_normalizer, d_form, c_form, rlex_less, ext_order,
                  straighten_commutator, pbw_product)
from .canonical import (dual_pbw_element, dual_canonical_basis,
                        dual_canonical_element, flag_minor)
from .quiver import (Orientation, parse_orientation, all_orientations,
                     adapted_word, reflect_at_sink, tau, hom_dim, ext_dim)
from .mult import (is_multiplicative, check_511, adapted_monomials,
                   verify_theorem_51)

__version__ = "0.1.0"
