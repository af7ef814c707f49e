"""fggc: a compiler from a small probabilistic language to factor graph
grammars, with exact inference by variable elimination and fixed-point
iteration."""

from .fgg import (FGG, DerivationTree, Edge, EdgeLabel, FactorTable,
                  Hypergraph, Node, Rule, isomorphic, validate, yield_graph)
from .frontend import check_program
from .inference import (query_start, solve_fixed_point)
from .oracle import (enumerate_derivations, inside_reference, interpret,
                     truncated_wX)
from .params import Params, load_params, params_from_json
from .parser import parse
from .translate import compile_source, translate
from .values import Atom, Bool, Dist, Domain, Inl, Inr, Pair, Unit, Value

__version__ = "0.1.0"
