"""streamfid: rate-limited stream sampling simulator and debiasing toolkit."""

from .model import (Event, FrequencyVector, RateLimitMessage, StreamBundle, TemporalRateProfile,
                    empirical_mean_rate, mean_rate_from_messages, merge_streams)
from .simulate import (GeneratorConfig, InterArrivalModel, ZipfPopulation, bernoulli_bundle,
                       bernoulli_sample, generate_stream, rate_limited_bundle, rate_limited_sample)
from .ratelimit import (Segment, estimate_missing, map_threads, segment_stream,
                        total_missing_from_threads, validate)
from .entity import (DiscreteDistribution, binomial_mixture_model, binomial_sample_model,
                     estimate_complete_frequency_vector, estimate_missing_entities,
                     frequency_vector_of, ks_d_statistic, negbinom_complete_model)
from .ranking import RankReport, kendall_tau, rank_percentiles, temporal_rates_from_messages, top_k_rank_table
from .graphs import (BowtieAssignment, Digraph, BipartiteGraph, bowtie_decompose, bowtie_flow,
                     build_bipartite, build_retweet_network, cluster_flow, spectral_cocluster)
from .cascades import (Cascade, CascadeSet, compare_cascades, inter_arrival_distribution,
                       reconstruct_cascades, relative_potential_reach)
from .breakdown import sampling_rate_breakdown

__version__ = "0.1.0"
