package obs

// Canonical metric names used across the pipeline. Keeping them in one
// place is the contract between the instrumented packages, the /metrics
// endpoint, the bench report, and the README's operations section.
const (
	// Algorithm 1 (internal/mining). Every seed singleton and every
	// extension join ends in exactly one of the first three counters. τ is
	// tested on the join's match list before the realization-cache lookup,
	// so patterns_rejected also counts below-τ re-derivations of known
	// patterns, and realization_cache_hits counts only re-derivations that
	// clear τ. Only an admitted pattern has its realization table built;
	// realization_rows counts the rows of those tables.
	MiningPatternsAdmitted = "wiclean_mining_patterns_admitted_total"
	MiningPatternsRejected = "wiclean_mining_patterns_rejected_total"
	MiningCacheHits        = "wiclean_mining_realization_cache_hits_total"
	MiningCandidates       = "wiclean_mining_candidates_total"
	MiningRealizationRows  = "wiclean_mining_realization_rows_total"
	MiningExtendJoins      = "wiclean_mining_extend_joins_total"
	MiningTypePulls        = "wiclean_mining_type_pulls_total"
	MiningEntitiesFetched  = "wiclean_mining_entities_fetched_total"
	MiningActionsIngested  = "wiclean_mining_actions_ingested_total"
	MiningRuns             = "wiclean_mining_runs_total"
	MiningSeconds          = "wiclean_mining_duration_seconds"

	// Intra-window parallel mining (internal/mining join-worker pool).
	MiningJoinWorkers        = "wiclean_mining_join_workers"
	MiningExtendBatches      = "wiclean_mining_extend_batches_total"
	MiningExtendBatchSeconds = "wiclean_mining_extend_batch_duration_seconds"

	// Revision-history source layer (internal/source): the on-demand
	// type-history fetch path of §4's Optimization (b), source.Fetcher.
	// Fetches/errors/latency count logical fetches (cache misses,
	// including every retry attempt inside); retries and give-ups count
	// the attempts after the first and the fetches that failed; in-flight
	// counts the fetch slots held; the cache series mirror the Fetcher's
	// LRU of per-type histories shared across windows and refinement
	// iterations.
	SourceFetches        = "wiclean_source_fetches_total"
	SourceFetchErrors    = "wiclean_source_fetch_errors_total"
	SourceFetchSeconds   = "wiclean_source_fetch_duration_seconds"
	SourceRetries        = "wiclean_source_retries_total"
	SourceGiveUps        = "wiclean_source_giveups_total"
	SourceInflight       = "wiclean_source_inflight_fetches"
	SourceCacheHits      = "wiclean_source_cache_hits_total"
	SourceCacheMisses    = "wiclean_source_cache_misses_total"
	SourceCacheCoalesced = "wiclean_source_cache_coalesced_total"
	SourceCacheEvictions = "wiclean_source_cache_evictions_total"
	SourceCacheActions   = "wiclean_source_cache_actions"
	SourceCacheTypes     = "wiclean_source_cache_types"
	SourceFaultsInjected = "wiclean_source_faults_injected_total"

	// Algorithm 2 (internal/windows).
	WindowsRefinementSteps = "wiclean_windows_refinement_steps_total"
	WindowsMined           = "wiclean_windows_mined_total"
	WindowsDiscovered      = "wiclean_windows_patterns_discovered_total"
	WindowsWidthDays       = "wiclean_windows_width_days"
	WindowsTau             = "wiclean_windows_tau"

	// Algorithm 3 (internal/detect).
	DetectRuns        = "wiclean_detect_runs_total"
	DetectRowsScanned = "wiclean_detect_rows_scanned_total"
	DetectPartials    = "wiclean_detect_partials_total"
	DetectFull        = "wiclean_detect_full_realizations_total"
	DetectSeconds     = "wiclean_detect_duration_seconds"

	// Edit assistance (internal/assist). The index series describe the
	// (op, label, source-type) → patterns inverted index the assistant
	// probes per live edit instead of scanning the full pattern list.
	AssistRequests        = "wiclean_assist_requests_total"
	AssistAdvices         = "wiclean_assist_advices_total"
	AssistSuggestSeconds  = "wiclean_assist_suggest_duration_seconds"
	AssistIndexKeys       = "wiclean_assist_index_keys"
	AssistIndexEntries    = "wiclean_assist_index_entries"
	AssistIndexProbes     = "wiclean_assist_index_probes_total"
	AssistIndexCandidates = "wiclean_assist_index_candidates_total"

	// Model store & warm start (internal/model): persisted pattern models
	// and the Algorithm 2 refinement checkpoints. Byte counters track the
	// serialized size; the gauge reports the pattern count of the last
	// model written or read.
	ModelSaves        = "wiclean_model_saves_total"
	ModelLoads        = "wiclean_model_loads_total"
	ModelSaveBytes    = "wiclean_model_save_bytes_total"
	ModelLoadBytes    = "wiclean_model_load_bytes_total"
	ModelSaveSeconds  = "wiclean_model_save_duration_seconds"
	ModelLoadSeconds  = "wiclean_model_load_duration_seconds"
	ModelPatterns     = "wiclean_model_patterns"
	CheckpointSaves   = "wiclean_checkpoint_saves_total"
	CheckpointBytes   = "wiclean_checkpoint_bytes_total"
	CheckpointSeconds = "wiclean_checkpoint_save_duration_seconds"
	CheckpointResumes = "wiclean_checkpoint_resumes_total"

	// HTTP surface (internal/plugin). Both carry a path label; the
	// request counter adds a status-class code label. Panics counts
	// handler panics the server's request wrapper recovered. Shed counts
	// requests answered 429 by the serving-layer admission path and
	// carries a reason label ("rate" = per-client token bucket,
	// "queue" = bounded accept queue full).
	HTTPRequests       = "wiclean_http_requests_total"
	HTTPRequestSeconds = "wiclean_http_request_duration_seconds"
	HTTPPanics         = "wiclean_http_panics_total"
	HTTPShed           = "wiclean_http_shed_total"

	// High-QPS serving layer (internal/plugin): the per-client token-bucket
	// limiter and the bounded accept queue in front of /suggest. Allowed and
	// limited partition limiter decisions; the clients gauge tracks resident
	// buckets (bounded by the limiter's MaxClients); queue depth is the
	// number of admitted in-flight /suggest computations.
	LimiterAllowed    = "wiclean_limiter_allowed_total"
	LimiterLimited    = "wiclean_limiter_limited_total"
	LimiterClients    = "wiclean_limiter_clients"
	LimiterQueueDepth = "wiclean_limiter_queue_depth"

	// /suggest response cache (internal/plugin): hits/misses count
	// lookups; evictions/bytes/entries describe the resident LRU.
	SuggestCacheHits      = "wiclean_suggest_cache_hits_total"
	SuggestCacheMisses    = "wiclean_suggest_cache_misses_total"
	SuggestCacheEvictions = "wiclean_suggest_cache_evictions_total"
	SuggestCacheBytes     = "wiclean_suggest_cache_bytes"
	SuggestCacheEntries   = "wiclean_suggest_cache_entries"

	// SIGHUP model hot reload (internal/plugin): swaps partition into
	// successes and failures (a failed reload keeps serving the old
	// model); the histogram times the rebuild (detect + assistant index).
	ReloadTotal   = "wiclean_reload_total"
	ReloadErrors  = "wiclean_reload_errors_total"
	ReloadSeconds = "wiclean_reload_duration_seconds"

	// Span aggregates render under this summary name with a span label
	// that is the trace span's own name; its count is the number of
	// ended trace spans of that name.
	SpanSeconds = "wiclean_span_duration_seconds"

	// Request-scoped tracing (internal/obs/trace). Started counts roots
	// opened in this process; exported counts completed traces, every one
	// of which exports.
	TracesStarted  = "wiclean_traces_started_total"
	TracesExported = "wiclean_traces_exported_total"
)
