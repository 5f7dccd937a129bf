package obs

// Canonical metric names used across the pipeline. Keeping them in one
// place is the contract between the instrumented packages, the /metrics
// endpoint, the bench report, and the README's operations section.
const (
	// Algorithm 1 (internal/mining). Every seed singleton and every
	// extension join ends in exactly one of the first three counters. τ is
	// tested before the realization-cache lookup, so patterns_rejected also
	// counts below-τ re-derivations of known patterns, and
	// realization_cache_hits counts only re-derivations that clear τ.
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
	MiningJoinWorkers           = "wiclean_mining_join_workers"
	MiningExtendBatches         = "wiclean_mining_extend_batches_total"
	MiningExtendBatchSeconds    = "wiclean_mining_extend_batch_duration_seconds"
	MiningJoinWorkerUtilization = "wiclean_mining_join_worker_utilization_ratio"

	// Relational engine (internal/relational). The join histogram carries
	// a strategy label; arena columns report buffer traffic of the
	// join-output arena (reuses = requests served without allocating).
	RelationalJoinSeconds  = "wiclean_relational_join_duration_seconds"
	RelationalArenaColumns = "wiclean_relational_arena_columns_total"
	RelationalArenaReuses  = "wiclean_relational_arena_reuses_total"

	// Interning dictionaries (internal/intern): distinct strings and
	// payload bytes of the per-miner dictionaries, set at result boundary.
	MiningDictEntries = "wiclean_mining_dict_entries"
	MiningDictBytes   = "wiclean_mining_dict_bytes"

	// Revision-history source layer (internal/source): the on-demand
	// type-history fetch path of §4's Optimization (b) and its resilience
	// stack. Fetches/errors/latency count logical fetches (cache misses,
	// including every retry attempt inside); retries and give-ups come
	// from the backoff middleware; the cache series mirror the LRU of
	// per-type histories shared across windows and refinement iterations.
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
	WindowsMineSeconds     = "wiclean_windows_mine_duration_seconds"
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
	// requests answered 500 by the recover middleware. Shed counts
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

	// Layered /suggest response cache (internal/plugin): hits/misses count
	// lookups against the memory tier; disk hits count misses served (and
	// promoted) from the disk tier; evictions/bytes/entries describe the
	// memory tier; coalesced counts requests that waited on another
	// identical in-flight computation instead of recomputing.
	SuggestCacheHits      = "wiclean_suggest_cache_hits_total"
	SuggestCacheMisses    = "wiclean_suggest_cache_misses_total"
	SuggestCacheDiskHits  = "wiclean_suggest_cache_disk_hits_total"
	SuggestCacheEvictions = "wiclean_suggest_cache_evictions_total"
	SuggestCacheBytes     = "wiclean_suggest_cache_bytes"
	SuggestCacheEntries   = "wiclean_suggest_cache_entries"
	SuggestCoalesced      = "wiclean_suggest_coalesced_total"

	// SIGHUP model hot reload (internal/plugin): swaps partition into
	// successes and failures (a failed reload keeps serving the old
	// model); the histogram times the rebuild (detect + assistant index).
	ReloadTotal   = "wiclean_reload_total"
	ReloadErrors  = "wiclean_reload_errors_total"
	ReloadSeconds = "wiclean_reload_duration_seconds"

	// Span aggregates render under this summary name with a span label.
	SpanSeconds = "wiclean_span_duration_seconds"

	// Observability internals: recent-span ring overflow (the ring keeps
	// the newest recentSpanCap spans; every overwrite of an older record
	// increments the counter).
	ObsSpansDropped = "wiclean_obs_spans_dropped_total"

	// Request-scoped tracing (internal/obs/trace). Started counts roots
	// opened in this process; exported/sampled-out partition completed
	// traces by the export decision; spans counts every ended trace span.
	TracesStarted    = "wiclean_traces_started_total"
	TracesExported   = "wiclean_traces_exported_total"
	TracesSampledOut = "wiclean_traces_sampled_out_total"
	TraceSpans       = "wiclean_trace_spans_total"
)
