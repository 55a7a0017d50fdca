"""Signaling games and Bayesian listeners for vague language.

Core pieces: finite discrete distributions with KL machinery (``prob``),
truth-conditional precise/vague messages (``messages``), the literal
listener over open parameters (``listener``), KL-utility speakers
(``speaker``), the level-k recursion (``ibr``), common-interest
cheap-talk games (``games``), canned reproduction scenarios
(``scenarios``), JSON file schemas (``schema``), and a CLI (``cli``).
"""

from .prob import (Dist, normalize, uniform, point_mass, regrid, kl_divergence,
                   surprisal, softmax, AllZeroWeights, LengthMismatch,
                   SupportMismatch, ValueNotInSupport, AllUtilitiesNegativeInfinite)
from .messages import (Message, Exact, Between, AtLeast, AtMost, Around, Threshold, Menu,
                       TALL, SHORT, denotation, denotation_vector,
                       precise_alternatives, vague_alternatives, message_from_json,
                       parse_message, MissingParameter, MessageParseError)
from .listener import (IndependentPrior, ExplicitJointPrior, JointPrior,
                       literal_update, around_closed_form, tall_closed_form,
                       closed_form_posterior, ZeroPosterior,
                       NonUniformPreconditionViolated, MissingParamPrior)
from .speaker import (Observation, SpeakerStrategy, utility, utility_table,
                      best_message, best_index, softmax_speaker,
                      NoTruthfulMessage, DEFAULT_LAMBDA)
from .ibr import (ListenerStrategy, RecursionTrace, literal_listener_strategy,
                  speaker_response, listener_response, iterate, check_fixed_point,
                  FixedPointReport, expected_utility, DeadMessageNoFallback)
from .games import (Game, MixedProfile, ProfileStack, Deviation, NashResult, expected_payoff,
                    is_nash, enumerate_pure_equilibria, pure_profile,
                    babbling_profile, generate_mixed_candidates,
                    mixed_dominance_check, dominance_batch, random_game,
                    speaker_meaning, SpeakerMeaning, question_precision,
                    PrecisionReport, precisify, DimensionMismatch, BudgetExceeded,
                    MissingQuestion, NotEnoughMessages, PreferenceHeterogeneity)
from .scenarios import (Scenario, default_t_priors, attendance_scenario,
                        tall_uniform_scenario, tall_gaussian_scenario,
                        gaussian_prior, scenario_around_table1,
                        scenario_tall_uniform, scenario_tall_gaussian,
                        optimality_search, run_named_scenario, SCENARIO_NAMES,
                        joint_enumeration_posterior, ratio_inequality_pairs_ok,
                        concentration_pairs_ok, ATTENDANCE_GRID, P_O_ATTENDANCE,
                        HEIGHT_GRID, P_O_TALL, TALL_MENU)
from .schema import SchemaError, load_scenario, scenario_from_obj, load_game, game_from_obj

__version__ = "0.1.0"
